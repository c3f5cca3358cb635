package mem

import "fmt"

// MainMemory models DRAM access latency with optional bandwidth contention.
// With bandwidth modelling enabled, each access occupies the (single) memory
// channel for ServiceCycles; an access issued while the channel is busy
// queues behind it, adding delay. This approximates the paper's observation
// that bus/memory-controller contention "manifests as traffic off-chip".
type MainMemory struct {
	latency      uint64
	service      uint64
	channelFree  uint64 // absolute cycle at which the channel next frees up
	queuedCycles uint64
}

// MemoryConfig describes a MainMemory.
type MemoryConfig struct {
	// LatencyCycles is the unloaded access latency. Must be positive.
	LatencyCycles uint64
	// ServiceCycles is the channel occupancy per access; zero disables
	// bandwidth modelling (infinite bandwidth).
	ServiceCycles uint64
}

// NewMainMemory constructs a memory model.
func NewMainMemory(cfg MemoryConfig) *MainMemory {
	if cfg.LatencyCycles == 0 {
		panic(fmt.Sprintf("mem: memory latency must be positive, got %d", cfg.LatencyCycles))
	}
	return &MainMemory{latency: cfg.LatencyCycles, service: cfg.ServiceCycles}
}

// Access returns the total latency of a memory access issued at absolute
// cycle `now`, including any queueing delay under bandwidth modelling.
func (m *MainMemory) Access(now uint64) uint64 {
	if m.service == 0 {
		return m.latency
	}
	start := now
	if m.channelFree > now {
		start = m.channelFree
		m.queuedCycles += m.channelFree - now
	}
	m.channelFree = start + m.service
	return (start - now) + m.latency
}

// QueuedCycles returns cumulative cycles spent queueing for the channel.
//
//caer:allow reach the per-core cycle account (ROADMAP.md direction 8) is to be its reader
func (m *MainMemory) QueuedCycles() uint64 { return m.queuedCycles }
