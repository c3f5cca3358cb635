package sched

import (
	"fmt"

	"caer/internal/comm"
	"caer/internal/mem"
	"caer/internal/telemetry"
)

// This file is the scheduler's partition stage: the LFOC-style
// cache-clustering planner behind the partition response family (DESIGN.md
// §16), and below it the per-period loop that feeds the planner and applies
// its masks. Co-runners are grouped into
// three cache clusters from the classifier's binary classes — sensitive
// apps get a protected partition aggressors physically cannot evict from,
// aggressors share a confined partition, and everyone else shares the
// default remainder — and the confined allotment shrinks under
// verdict-driven pressure, the partition analogue of red-light/green-light
// throttling.

// ClusterKind labels the cache cluster an app is assigned to.
type ClusterKind int

const (
	// ClusterDefault shares the unreserved middle of the LLC.
	ClusterDefault ClusterKind = iota
	// ClusterProtected holds sensitive apps: their ways are theirs alone.
	ClusterProtected
	// ClusterConfined holds aggressors: they may only fill (and so only
	// fight each other for) the confined low ways.
	ClusterConfined
)

// String names the cluster kind.
func (k ClusterKind) String() string {
	switch k {
	case ClusterDefault:
		return "default"
	case ClusterProtected:
		return "protected"
	case ClusterConfined:
		return "confined"
	default:
		return fmt.Sprintf("ClusterKind(%d)", int(k))
	}
}

// AppClass is the classifier summary the cluster planner consumes for one
// co-runner: its name, whether it is a pinned latency-critical service,
// and the hysteresis-filtered binary classes sched.Classifier maintains.
type AppClass struct {
	Name      string
	Latency   bool // latency-critical service: protected regardless of class
	Aggressor bool
	Sensitive bool
}

// Classify maps one app's summary to its cluster. It is a pure function
// of the summary alone — assignment cannot depend on arrival order or on
// the other apps present (the permutation-invariance property test pins
// this).
func Classify(c AppClass) ClusterKind {
	switch {
	case c.Latency:
		return ClusterProtected
	case c.Sensitive && !c.Aggressor:
		return ClusterProtected
	case c.Aggressor:
		return ClusterConfined
	default:
		return ClusterDefault
	}
}

// ClusterConfig sizes the three partitions of a ways-wide LLC.
type ClusterConfig struct {
	// ProtectedWaysPerApp is granted to each protected app, up to half the
	// cache. Default 4.
	ProtectedWaysPerApp int
	// ConfinedWays is the aggressors' base allotment before pressure
	// shrinks it, never past the minConfinedWays floor. Default ways/4.
	ConfinedWays int
}

func (c ClusterConfig) withDefaults(ways int) ClusterConfig {
	if c.ProtectedWaysPerApp == 0 {
		c.ProtectedWaysPerApp = 4
	}
	if c.ConfinedWays == 0 {
		c.ConfinedWays = ways / 4
		if c.ConfinedWays < 1 {
			c.ConfinedWays = 1
		}
	}
	return c
}

// minConfinedWays is the floor pressure can never squeeze the confined
// cluster past.
const minConfinedWays = 1

// ClusterPlan is one domain's partition layout: three disjoint way masks
// that together tile the whole cache (the tiling property test pins this
// for every input). A cluster with no members has a zero mask and its
// ways fold into Default, so no way is ever orphaned by the plan itself.
type ClusterPlan struct {
	Protected mem.WayMask
	Default   mem.WayMask
	Confined  mem.WayMask

	NProtected, NDefault, NConfined int
}

// MaskFor returns the fill mask an owner of the given cluster receives.
// The cluster masks themselves tile the cache disjointly; owner masks are
// unions of them: a protected app fills its reserve AND the shared default
// middle (its reserve is exclusive, but confinement must not cost it the
// capacity it enjoyed alone), bystanders fill only the middle, and
// aggressors only the confined low ways.
func (p ClusterPlan) MaskFor(kind ClusterKind) mem.WayMask {
	switch kind {
	case ClusterProtected:
		return p.Protected | p.Default
	case ClusterConfined:
		return p.Confined
	case ClusterDefault:
		return p.Default
	default:
		panic(fmt.Sprintf("sched: unknown cluster kind %v", kind))
	}
}

// PlanClusters computes the partition layout for one LLC domain: classes
// are the resident apps' summaries, ways the cache associativity, and
// pressure the verdict-driven confinement level in [0, ConfinedWays-1]. The
// plan is a pure function of (classes-as-a-multiset, ways, pressure, cfg):
// sizing consults only cluster member counts, so permuting the class list
// cannot change the layout.
func PlanClusters(classes []AppClass, ways, pressure int, cfg ClusterConfig) ClusterPlan {
	if ways < 4 {
		panic(fmt.Sprintf("sched: cluster planning needs at least 4 ways, got %d", ways))
	}
	cfg = cfg.withDefaults(ways)
	var plan ClusterPlan
	for _, c := range classes {
		switch Classify(c) {
		case ClusterProtected:
			plan.NProtected++
		case ClusterConfined:
			plan.NConfined++
		case ClusterDefault:
			plan.NDefault++
		}
	}
	prot := 0
	if plan.NProtected > 0 {
		prot = plan.NProtected * cfg.ProtectedWaysPerApp
		if max := ways / 2; prot > max {
			prot = max
		}
		if prot < 1 {
			prot = 1
		}
	}
	conf := 0
	if plan.NConfined > 0 {
		conf = cfg.ConfinedWays - pressure
		if conf < minConfinedWays {
			conf = minConfinedWays
		}
		if max := ways - prot - 1; conf > max {
			conf = max
		}
	}
	// Layout: confined low ways, protected top ways, default the middle.
	// prot <= ways/2 and conf <= ways-prot-1 guarantee a non-empty default
	// and pairwise-disjoint masks whose union is the full mask.
	if conf > 0 {
		plan.Confined = mem.ContiguousMask(0, conf)
	}
	if prot > 0 {
		plan.Protected = mem.ContiguousMask(ways-prot, ways)
	}
	plan.Default = mem.FullMask(ways) &^ plan.Confined &^ plan.Protected
	return plan
}

// Clusterer holds one LLC domain's current plan and recomputes it
// allocation-free every period (caer-vet's hot walk reaches the Rescore
// path through Scheduler.Step).
type Clusterer struct {
	cfg  ClusterConfig
	ways int
	plan ClusterPlan
}

// NewClusterer builds a planner for a ways-wide LLC.
func NewClusterer(ways int, cfg ClusterConfig) *Clusterer {
	return &Clusterer{cfg: cfg.withDefaults(ways), ways: ways}
}

// Rescore recomputes the plan from the current summaries and pressure,
// returning whether the layout changed. Allocation-free.
func (cl *Clusterer) Rescore(classes []AppClass, pressure int) bool {
	plan := PlanClusters(classes, cl.ways, pressure, cl.cfg)
	if plan == cl.plan {
		return false
	}
	cl.plan = plan
	return true
}

// Plan returns the current layout.
func (cl *Clusterer) Plan() ClusterPlan { return cl.plan }

// domainPartition is one LLC domain's partition-stage state. A domain with
// no latency app has nothing to protect: cl is nil and it stays
// unpartitioned. Resizes fire only on a want != applied delta, and the
// scratches are pre-sized to the domain's cores, so the per-period path is
// allocation-free.
type domainPartition struct {
	cl            *Clusterer
	pressure      int           // verdict-driven confinement level
	want, applied []mem.WayMask // per local core
	classes       []AppClass    // resident-app scratch Rescore consumes
	cores         []int         // ... and each one's local core
}

// startPartitions builds the partition stage before the first period (Arm).
func (s *Scheduler) startPartitions() {
	s.parts = make([]domainPartition, s.m.Domains())
	for i := range s.latency {
		p := &s.parts[s.latency[i].domain]
		if p.cl != nil {
			continue
		}
		h := s.m.DomainHierarchy(s.latency[i].domain)
		ways, cores := h.L3().Ways(), h.Cores()
		p.cl = NewClusterer(ways, s.cfg.Cluster)
		p.want = make([]mem.WayMask, cores)
		p.applied = make([]mem.WayMask, cores)
		for c := range p.applied {
			p.applied[c] = mem.FullMask(ways)
		}
		p.classes = make([]AppClass, cores)
		p.cores = make([]int, cores)
	}
}

// applyPartitions drives the LFOC-style partition response (DESIGN.md
// §16): per domain, fold the combined directive of the pipeline's last
// probe into the confinement pressure, re-plan the cache clusters from the
// classifier's current classes, and apply any mask deltas to the domain's
// L3. The per-period path is allocation-free; actual resizes (rare) go
// through the cold resizePartition.
func (s *Scheduler) applyPartitions() {
	for d := range s.parts {
		p := &s.parts[d]
		if p.cl == nil {
			continue
		}
		if s.pipe.GroupDirective(d) == comm.DirectivePause {
			// Pressure rises no further than it takes to squeeze
			// ConfinedWays down to the floor.
			if p.pressure < p.cl.cfg.ConfinedWays-minConfinedWays {
				p.pressure++
			}
		} else if p.pressure > 0 {
			p.pressure--
		}
		// Gather resident apps into the pre-sized scratches (indexed
		// writes, never growth: n is bounded by the core count).
		n := 0
		for i := range s.latency {
			la := &s.latency[i]
			if la.domain != d {
				continue
			}
			p.classes[n] = AppClass{Name: la.name, Latency: true,
				Aggressor: s.classifier.Aggressor(la.app), Sensitive: s.classifier.Sensitive(la.app)}
			p.cores[n] = s.m.LocalCore(la.core)
			n++
		}
		for _, j := range s.running {
			if j.domain != d {
				continue
			}
			p.classes[n] = AppClass{Name: j.spec.Name,
				Aggressor: s.classifier.Aggressor(j.app), Sensitive: s.classifier.Sensitive(j.app)}
			p.cores[n] = s.m.LocalCore(j.core)
			n++
		}
		classes := p.classes[:n]
		if p.cl.Rescore(classes, p.pressure) {
			telemetry.PartPlanChanges.Inc()
			plan := p.cl.Plan()
			telemetry.PartProtectedWays.Set(float64(plan.Protected.Count()))
			telemetry.PartConfinedWays.Set(float64(plan.Confined.Count()))
			telemetry.PartPressure.Set(float64(p.pressure))
		}
		plan := p.cl.Plan()
		for lc := range p.want {
			p.want[lc] = plan.Default
		}
		for i := range classes {
			p.want[p.cores[i]] = plan.MaskFor(Classify(classes[i]))
		}
		for lc := range p.want {
			if p.want[lc] != p.applied[lc] {
				s.resizePartition(d, lc, p.want[lc])
			}
		}
	}
}

// resizePartition applies one owner's new L3 way-mask and counts the lines
// it strands outside it (hardware-CAT-like lazy reclaim: they stay resident
// until other owners' fills evict them). Cold path: resizes are rare
// relative to periods.
//
//caer:cold control-plane resize (DESIGN.md §16), reached only when a cluster plan changes: mask installation may grow the mask table and the orphan count walks the cache
func (s *Scheduler) resizePartition(d, localCore int, mask mem.WayMask) {
	h := s.m.DomainHierarchy(d)
	h.SetL3OwnerMask(localCore, mask)
	s.parts[d].applied[localCore] = mask
	telemetry.PartResizes.Inc()
	if n := h.L3().StrandedLines(localCore); n > 0 {
		telemetry.PartOrphans.Add(uint64(n))
	}
}
