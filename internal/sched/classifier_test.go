package sched

import (
	"testing"
)

func TestClassifierScoresSeparateAxes(t *testing.T) {
	c := NewClassifier(100, 2)
	aggr := c.AddApp()
	sens := c.AddApp()
	for i := 0; i < 8; i++ {
		c.Observe(aggr, 900, 10) // heavy miss pressure, no reuse
		c.Observe(sens, 5, 400)  // light pressure, heavy L3 reuse
	}
	if a := c.Aggressiveness(aggr); a < 0.8 {
		t.Errorf("aggressor aggressiveness = %v, want > 0.8", a)
	}
	if s := c.Sensitivity(aggr); s > 0.2 {
		t.Errorf("aggressor sensitivity = %v, want < 0.2", s)
	}
	if a := c.Aggressiveness(sens); a > 0.2 {
		t.Errorf("sensitive app aggressiveness = %v, want < 0.2", a)
	}
	if s := c.Sensitivity(sens); s < 0.7 {
		t.Errorf("sensitive app sensitivity = %v, want > 0.7", s)
	}
	if !c.Aggressor(aggr) || c.Sensitive(aggr) {
		t.Error("aggressor class bits wrong")
	}
	if c.Aggressor(sens) || !c.Sensitive(sens) {
		t.Error("sensitive class bits wrong")
	}
}

func TestClassifierHysteresisArming(t *testing.T) {
	c := NewClassifier(100, 4)
	app := c.AddApp()
	for i := 0; i < 3; i++ {
		c.Observe(app, 900, 0)
		if c.Aggressor(app) {
			t.Fatalf("aggressor class armed after %d periods, hysteresis is 4", i+1)
		}
	}
	c.Observe(app, 900, 0)
	if !c.Aggressor(app) {
		t.Fatal("aggressor class not armed after 4 consecutive high periods")
	}
}

func TestClassifierHysteresisDisarm(t *testing.T) {
	c := NewClassifier(100, 3)
	app := c.AddApp()
	for i := 0; i < 8; i++ {
		c.Observe(app, 900, 0)
	}
	if !c.Aggressor(app) {
		t.Fatal("setup: class not armed")
	}
	// The windowed mean decays slowly, then the streak must accumulate: the
	// class holds for several quiet periods before flipping off.
	flipped := -1
	for i := 0; i < 2*classifierWindow; i++ {
		c.Observe(app, 0, 0)
		if !c.Aggressor(app) {
			flipped = i + 1
			break
		}
	}
	if flipped < 0 {
		t.Fatal("aggressor class never disarmed after sustained quiet")
	}
	if flipped < 3 {
		t.Errorf("class disarmed after %d quiet periods, hysteresis is 3", flipped)
	}
	if a := c.Aggressiveness(app); a >= classOffScore {
		t.Errorf("post-disarm aggressiveness = %v, want < %v", a, classOffScore)
	}
}

func TestClassifierUnobservedApp(t *testing.T) {
	c := NewClassifier(150, 8)
	app := c.AddApp()
	if c.Aggressiveness(app) != 0 || c.Sensitivity(app) != 0 {
		t.Error("unobserved app must score 0 on both axes")
	}
	if c.Aggressor(app) || c.Sensitive(app) {
		t.Error("unobserved app must not be classified")
	}
}

func TestClassifierNegativeHitsClamped(t *testing.T) {
	c := NewClassifier(100, 1)
	app := c.AddApp()
	c.Observe(app, 50, -25) // PMU skew: accesses delta < misses delta
	if s := c.Sensitivity(app); s != 0 {
		t.Errorf("sensitivity after negative hits = %v, want 0", s)
	}
}

func TestClassifierVerdicts(t *testing.T) {
	c := NewClassifier(100, 1)
	app := c.AddApp()
	if app != 0 || len(c.apps) != 1 {
		t.Error("classifier registry accessors wrong")
	}
}

func TestClassifierConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero scale", func() { NewClassifier(0, 4) })
	mustPanic("negative scale", func() { NewClassifier(-1, 4) })
	mustPanic("zero hysteresis", func() { NewClassifier(100, 0) })
}
