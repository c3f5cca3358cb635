//go:build linux

// Package perf wraps the Linux perf_event_open(2) syscall so the CAER
// runtime can read real hardware performance counters — the deployment mode
// of the original paper (which used Perfmon2 on the same counters). It
// implements pmu.Source over per-CPU hardware events.
//
// Counter access is a privileged operation on most systems
// (kernel.perf_event_paranoid); every entry point degrades gracefully with
// a descriptive error so the simulated backend remains the default.
package perf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"syscall"
	"unsafe"

	"caer/internal/pmu"
)

// Static read-path errors: Counter.Read sits on the per-period sampling
// path, so its failure modes must not format (fmt.Errorf allocates). The
// errno detail is lost, but every caller treats a failed read as "signal
// missing" anyway.
var (
	errCounterRead = errors.New("perf: read counter failed")
	errShortRead   = errors.New("perf: short counter read")
)

// sysPerfEventOpen is the x86-64/arm64 syscall number for
// perf_event_open(2). (Same number on both Linux ABIs this repo targets.)
const sysPerfEventOpen = 298

// perf_event_attr type field.
const perfTypeHardware = 0

// PERF_COUNT_HW_* configs.
const (
	hwCPUCycles       = 0
	hwInstructions    = 1
	hwCacheReferences = 2
	hwCacheMisses     = 3
)

// attr flag bits (perf_event_attr.flags bitfield, LSB first).
const (
	flagDisabled      = 1 << 0
	flagExcludeKernel = 1 << 5
	flagExcludeHV     = 1 << 6
)

// ioctl requests.
const (
	ioctlEnable = 0x2400
	ioctlReset  = 0x2403
)

// perfEventAttr mirrors struct perf_event_attr (PERF_ATTR_SIZE_VER5, 112
// bytes). Fields past the flags word are unused here but must be present
// so the kernel reads a correctly-sized struct.
type perfEventAttr struct {
	Type             uint32
	Size             uint32
	Config           uint64
	SamplePeriod     uint64
	SampleType       uint64
	ReadFormat       uint64
	Flags            uint64
	WakeupEvents     uint32
	BPType           uint32
	BPAddrOrConfig1  uint64
	BPLenOrConfig2   uint64
	BranchSampleType uint64
	SampleRegsUser   uint64
	SampleStackUser  uint32
	ClockID          int32
	SampleRegsIntr   uint64
	AuxWatermark     uint32
	SampleMaxStack   uint16
	_                uint16
}

// eventConfig maps a pmu.Event to a hardware perf config, or reports that
// the event has no hardware equivalent here.
func eventConfig(ev pmu.Event) (uint64, bool) {
	switch ev {
	case pmu.EventLLCMisses:
		return hwCacheMisses, true
	case pmu.EventLLCAccesses:
		return hwCacheReferences, true
	case pmu.EventInstrRetired:
		return hwInstructions, true
	case pmu.EventCycles:
		return hwCPUCycles, true
	case pmu.EventL2Misses:
		// No generic PERF_TYPE_HARDWARE encoding; needs a raw
		// model-specific event, which we do not configure here.
		return 0, false
	default:
		return 0, false
	}
}

// Counter is one open hardware counter.
type Counter struct {
	fd int
	ev pmu.Event
}

// OpenCounter opens a counting (non-sampling) hardware counter for ev on
// the given CPU, across all processes (pid = -1), excluding kernel and
// hypervisor events — the configuration the CAER monitor layers need.
func OpenCounter(ev pmu.Event, cpu int) (*Counter, error) {
	cfg, ok := eventConfig(ev)
	if !ok {
		return nil, fmt.Errorf("perf: event %v has no hardware mapping", ev)
	}
	attr := perfEventAttr{
		Type:   perfTypeHardware,
		Size:   uint32(unsafe.Sizeof(perfEventAttr{})),
		Config: cfg,
		Flags:  flagDisabled | flagExcludeKernel | flagExcludeHV,
	}
	fd, _, errno := syscall.Syscall6(sysPerfEventOpen,
		uintptr(unsafe.Pointer(&attr)),
		^uintptr(0), // pid = -1: all processes
		uintptr(cpu),
		^uintptr(0), // group_fd = -1
		0, 0)
	if errno != 0 {
		return nil, fmt.Errorf("perf: perf_event_open(%v, cpu %d): %w (check kernel.perf_event_paranoid)", ev, cpu, errno)
	}
	c := &Counter{fd: int(fd), ev: ev}
	if err := c.ioctl(ioctlReset); err != nil {
		_ = c.Close() // best-effort cleanup; the ioctl error wins
		return nil, err
	}
	if err := c.ioctl(ioctlEnable); err != nil {
		_ = c.Close() // best-effort cleanup; the ioctl error wins
		return nil, err
	}
	return c, nil
}

func (c *Counter) ioctl(req uintptr) error {
	_, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(c.fd), req, 0)
	if errno != 0 {
		return fmt.Errorf("perf: ioctl %#x: %w", req, errno)
	}
	return nil
}

// Read returns the counter's cumulative value.
func (c *Counter) Read() (uint64, error) {
	var buf [8]byte
	//caer:allow hotpath reading the perf fd IS the sampling mechanism; one read(2) per counter per period is the budgeted cost (paper §6)
	n, err := syscall.Read(c.fd, buf[:])
	if err != nil {
		return 0, errCounterRead
	}
	if n != 8 {
		return 0, errShortRead
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Close releases the counter's file descriptor.
func (c *Counter) Close() error {
	if c.fd < 0 {
		return nil
	}
	err := syscall.Close(c.fd)
	c.fd = -1
	return err
}

// Source adapts a set of per-CPU counters to pmu.Source, letting the CAER
// runtime's monitors and engines run unchanged over real hardware. "Core"
// indices map to the CPUs passed to NewSource in order.
type Source struct {
	cpus []int
	// counters is dense, indexed [core][event]: the per-period read path
	// must not hash (two map lookups per event per core per period add up
	// against the paper's <1% overhead budget). Unopened slots are nil.
	counters [][]*Counter
}

// NewSource opens counters for every (cpu, event) pair. On any failure it
// closes everything already opened and returns the error.
func NewSource(cpus []int, events []pmu.Event) (*Source, error) {
	if len(cpus) == 0 || len(events) == 0 {
		return nil, fmt.Errorf("perf: source needs at least one CPU and one event")
	}
	width := len(pmu.Events())
	s := &Source{cpus: cpus, counters: make([][]*Counter, len(cpus))}
	for core, cpu := range cpus {
		s.counters[core] = make([]*Counter, width)
		for _, ev := range events {
			c, err := OpenCounter(ev, cpu)
			if err != nil {
				_ = s.Close() // best-effort cleanup; the open error wins
				return nil, err
			}
			s.counters[core][ev] = c
		}
	}
	return s, nil
}

// ReadCounter implements pmu.Source. Events that were not opened (or whose
// read fails) report zero; the CAER heuristics treat missing signals as
// quiet, which fails safe (no throttling).
func (s *Source) ReadCounter(core int, ev pmu.Event) uint64 {
	if core < 0 || core >= len(s.counters) || int(ev) < 0 || int(ev) >= len(s.counters[core]) {
		return 0
	}
	c := s.counters[core][ev]
	if c == nil {
		return 0
	}
	v, err := c.Read()
	if err != nil {
		return 0
	}
	return v
}

// Close releases every counter, returning the first error.
func (s *Source) Close() error {
	var first error
	for _, row := range s.counters {
		for _, c := range row {
			if c == nil {
				continue
			}
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
