package caer

import (
	"fmt"
	"strings"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"window", func(c *Config) { c.WindowSize = 0 }, "WindowSize"},
		{"impact", func(c *Config) { c.ImpactFactor = -0.1 }, "ImpactFactor"},
		{"usage", func(c *Config) { c.UsageThresh = -1 }, "UsageThresh"},
		{"response", func(c *Config) { c.ResponseLength = 0 }, "ResponseLength"},
		{"adaptive ceiling", func(c *Config) { c.AdaptiveResponse = true; c.ResponseLength = maxResponseLength + 1 }, "ResponseLength"},
	}
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestShutterShape pins the relations Algorithm 1's constants must keep:
// each span leaves at least one settled period after its transient skip,
// the shutter's sample window covers exactly one cycle (Step reads
// positions relative to the cycle), and the interrupt trigger's bound is a
// positive miss count.
func TestShutterShape(t *testing.T) {
	if transientSkip+1 >= switchPoint {
		t.Errorf("transientSkip %d leaves no settled shutter periods before switchPoint %d", transientSkip, switchPoint)
	}
	if switchPoint+transientSkip >= endPoint {
		t.Errorf("transientSkip %d leaves no settled burst periods before endPoint %d", transientSkip, endPoint)
	}
	w := NewShutterDetector(DefaultConfig()).rWindow
	for i := 0; i <= endPoint; i++ {
		w.Push(1)
	}
	if got := w.Len(); got != endPoint {
		t.Errorf("shutter window length = %d, want endPoint %d", got, endPoint)
	}
	if noiseThresh*triggerWindow < 1 {
		t.Errorf("interrupt trigger bound %v is below one miss", noiseThresh*triggerWindow)
	}
}

func TestVerdictStrings(t *testing.T) {
	cases := map[Verdict]string{
		VerdictPending:      "pending",
		VerdictContention:   "contention",
		VerdictNoContention: "no-contention",
		Verdict(9):          "Verdict(9)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestHeuristicKindStringsAndFactories(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		k    HeuristicKind
		name string
		det  string
		resp string
	}{
		{HeuristicShutter, "shutter", "*caer.ShutterDetector", "red-light-green-light(10)"},
		{HeuristicRule, "rule-based", "*caer.RuleDetector", "soft-lock"},
		{HeuristicRandom, "random", "*caer.RandomDetector", "red-light-green-light(1)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.name {
			t.Errorf("String() = %q, want %q", got, c.name)
		}
		if got := fmt.Sprintf("%T", c.k.NewDetector(cfg)); got != c.det {
			t.Errorf("%v detector = %q, want %q", c.k, got, c.det)
		}
		if got := c.k.NewResponder(cfg).Name(); got != c.resp {
			t.Errorf("%v responder = %q, want %q", c.k, got, c.resp)
		}
	}
	if HeuristicKind(9).String() != "HeuristicKind(9)" {
		t.Error("unknown kind string wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown kind NewDetector did not panic")
			}
		}()
		HeuristicKind(9).NewDetector(cfg)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown kind NewResponder did not panic")
			}
		}()
		HeuristicKind(9).NewResponder(cfg)
	}()
}
