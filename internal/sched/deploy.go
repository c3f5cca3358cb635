package sched

import (
	"caer/internal/machine"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// The scheduled deployment's process layout, stated once: RunJobs and the
// fleet's machines both seat processes through ServiceLayout and JobLayout,
// so a one-machine fleet fed its jobs up front is RunJobs byte for byte.
// Footprints are disjoint (separate processes share no data): service 0 at
// address 0, further services from serviceBase, jobs from batchBase,
// batchStride apart.
const (
	batchBase   = 1 << 28
	batchStride = 1 << 26
	serviceBase = 1 << 27
)

// ServiceLayout returns the footprint base and process seed of a machine's
// j-th latency service under run seed seed, in spec.Profile.NewProcess's
// argument order.
func ServiceLayout(j int, seed int64) (base uint64, procSeed int64) {
	if j == 0 {
		return 0, seed
	}
	return serviceBase + uint64(j-1)*batchStride, seed + 100 + int64(j-1)
}

// JobLayout is ServiceLayout for the i-th submitted job. i is the job's
// index in the whole run, not on a machine, so a job the fleet migrates
// re-runs identically wherever it lands.
func JobLayout(i int, seed int64) (base uint64, procSeed int64) {
	return batchBase + uint64(i)*batchStride, seed + 1 + int64(i)
}

// RunJobs runs the closed-job-set deployment: a machine shaped by mc under
// a scheduler configured by cfg, service pinned to core 0 as the one
// latency-sensitive application, and jobs submitted in order before the
// first period, each running once to its instruction count. It steps until
// the service has completed and every job has drained, or maxPeriods, and
// returns the scheduler for its reports plus the service's run length: its
// completion period, or the periods run if LatencyReports()[0].Done is 0.
func RunJobs(mc machine.Config, cfg Config, service spec.Profile, jobs []spec.Profile, seed int64, maxPeriods int) (*Scheduler, uint64) {
	telemetry.RunnerRunsScheduled.Inc() // the series keeps the name it had when this run was a runner mode
	s := New(machine.New(mc), cfg)
	lat := service.NewProcess(ServiceLayout(0, seed))
	s.AddLatency(spec.ShortName(service.Name), 0, lat)
	for i, p := range jobs {
		base, procSeed := JobLayout(i, seed)
		s.Submit(Job{Name: spec.ShortName(p.Name), New: func() *machine.Process {
			return p.NewProcess(base, procSeed)
		}})
	}
	s.RunUntil(func() bool { return lat.Done() && s.Done() }, maxPeriods)
	if done := s.latency[0].donePeriod; done != 0 {
		return s, done
	}
	return s, s.period
}
