// Package mem models the main memory and the processor-to-memory
// interconnect of the default configuration in Section 4.4 of the paper: a
// 500-cycle unloaded latency and a 600 MHz split-transaction interconnect
// with a 16-byte read bus (9.6 GB/s) and an 8-byte write bus (4.8 GB/s),
// with prefetches and correlation-table traffic always strictly lower
// priority than demand accesses.
//
// The model is a resource-reservation timing model rather than an event
// queue: each bus keeps a busy-until cursor, transfers reserve occupancy on
// it, and completion times are computed analytically. Demand requests see
// only other demand traffic (the paper configures the machine so that
// prefetches and table accesses never delay demand accesses); low-priority
// requests serialize behind *all* accepted traffic, and are dropped when
// the low-priority backlog exceeds a bound — this is where the paper's
// "prefetches may sometimes be dropped when the available memory bandwidth
// is saturated" behaviour comes from.
package mem

import (
	"fmt"
	"math"

	"ebcp/internal/amo"
	"ebcp/internal/ebcperr"
)

// Priority orders request classes from most to least urgent. Demand
// accesses are never delayed by the lower classes.
type Priority int

const (
	// Demand is a core demand miss (instruction or data).
	Demand Priority = iota
	// TableRead is a correlation-table read. Only the prefetch-address
	// read is timing critical, but all table reads share this class; they
	// are below demand and above prefetch data.
	TableRead
	// PrefetchData is a prefetched line transfer.
	PrefetchData
	// TableWrite is a correlation-table update or LRU write-back: lowest
	// priority, serviced only with spare bandwidth.
	TableWrite
	numPriorities
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case Demand:
		return "demand"
	case TableRead:
		return "table-read"
	case PrefetchData:
		return "prefetch"
	case TableWrite:
		return "table-write"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// Config describes the memory system.
type Config struct {
	// UnloadedLatency is the core-cycle latency of an uncontended access.
	UnloadedLatency uint64
	// CoreGHz is the core clock, used to convert bus bandwidth to
	// per-cycle occupancy.
	CoreGHz float64
	// ReadGBps / WriteGBps are the interconnect bandwidths.
	ReadGBps  float64
	WriteGBps float64
	// LowPriorityBacklog bounds, in line-transfer units, how far the
	// low-priority read backlog may run ahead of current time before new
	// low-priority requests are dropped.
	LowPriorityBacklog int
}

// DefaultConfig is the paper's default memory system.
func DefaultConfig() Config {
	return Config{
		UnloadedLatency:    500,
		CoreGHz:            3.0,
		ReadGBps:           9.6,
		WriteGBps:          4.8,
		LowPriorityBacklog: 64,
	}
}

// Validate reports configuration errors. All errors match
// ebcperr.ErrInvalidConfig under errors.Is.
func (c Config) Validate() error {
	if c.UnloadedLatency == 0 {
		return ebcperr.Invalidf("mem: unloaded latency must be positive")
	}
	if !positiveFinite(c.CoreGHz) || !positiveFinite(c.ReadGBps) || !positiveFinite(c.WriteGBps) {
		return ebcperr.Invalidf("mem: clock %v GHz and bandwidths %v/%v GB/s must be positive and finite", c.CoreGHz, c.ReadGBps, c.WriteGBps)
	}
	for _, gbps := range []float64{c.ReadGBps, c.WriteGBps} {
		if float64(amo.LineSize)*c.CoreGHz/gbps > maxLineOccupancy {
			return ebcperr.Invalidf("mem: %v GB/s at %v GHz holds the bus more than %d cycles per %dB line", gbps, c.CoreGHz, maxLineOccupancy, amo.LineSize)
		}
	}
	if c.LowPriorityBacklog <= 0 {
		return ebcperr.Invalidf("mem: low-priority backlog bound %d must be positive", c.LowPriorityBacklog)
	}
	return nil
}

// maxLineOccupancy bounds the core cycles one line may hold a bus.
// Validate rejects slower buses, so lineOccupancy's conversion to
// uint64 cannot overflow and bus cursors stay far from wrapping.
const maxLineOccupancy = 1 << 32

// positiveFinite reports whether v is a positive finite number: NaN
// and +Inf fail, as do zero and negatives.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// lineOccupancy returns the core cycles a 64B line holds a bus of the
// given bandwidth.
func lineOccupancy(gbps, coreGHz float64) uint64 {
	bytesPerCycle := gbps / coreGHz
	occ := uint64(float64(amo.LineSize)/bytesPerCycle + 0.5)
	if occ == 0 {
		occ = 1
	}
	return occ
}

// ClassStats counts per-priority activity.
type ClassStats struct {
	Reads      uint64
	Writes     uint64
	ReadDrops  uint64
	WriteDrops uint64
}

// Stats aggregates memory-system activity.
type Stats struct {
	PerClass [numPriorities]ClassStats
	// ReadBusyCycles / WriteBusyCycles accumulate reserved bus occupancy,
	// for utilization reporting.
	ReadBusyCycles  uint64
	WriteBusyCycles uint64
}

// System is the memory + interconnect model.
type System struct {
	cfg      Config
	readOcc  uint64
	writeOcc uint64

	// Cascading read-bus cursors, one per priority class: a class's
	// requests serialize behind that class and everything above it, and
	// push the cursors of the classes below (strict priority — a table
	// read is never stuck behind queued prefetch data).
	demandReadBusy   uint64
	tableReadBusy    uint64
	prefetchReadBusy uint64
	// Write-bus cursors, likewise (prefetch data does not use the write
	// bus).
	demandWriteBusy uint64
	tableWriteBusy  uint64

	stats Stats
}

// New builds a memory system. It returns an ErrInvalidConfig-classified
// error if the configuration fails Validate.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &System{
		cfg:      cfg,
		readOcc:  lineOccupancy(cfg.ReadGBps, cfg.CoreGHz),
		writeOcc: lineOccupancy(cfg.WriteGBps, cfg.CoreGHz),
	}, nil
}

// Stats returns a copy of the counters.
func (m *System) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (at the warmup/measure boundary). Bus
// cursors are preserved: in-flight traffic remains in flight.
func (m *System) ResetStats() { m.stats = Stats{} }

// Read requests one line (64B) from memory at cycle now with the given
// priority. It returns the completion cycle and whether the request was
// accepted. Demand reads are always accepted; lower classes serialize
// behind their own class and every class above, and are dropped when
// their backlog bound is exceeded.
func (m *System) Read(now uint64, pri Priority) (completion uint64, accepted bool) {
	cs := &m.stats.PerClass[pri]
	var cursor *uint64
	switch pri {
	case Demand:
		cursor = &m.demandReadBusy
	case TableRead:
		cursor = &m.tableReadBusy
	default: // PrefetchData (and any lower read class)
		cursor = &m.prefetchReadBusy
	}
	if pri != Demand {
		backlog := int64(*cursor) - int64(now)
		if backlog > int64(m.cfg.LowPriorityBacklog)*int64(m.readOcc) {
			cs.ReadDrops++
			return 0, false
		}
	}
	start := max64(now, *cursor)
	*cursor = start + m.readOcc
	// Push the cursors of the lower classes behind this reservation.
	if m.tableReadBusy < m.demandReadBusy {
		m.tableReadBusy = m.demandReadBusy
	}
	if m.prefetchReadBusy < m.tableReadBusy {
		m.prefetchReadBusy = m.tableReadBusy
	}
	cs.Reads++
	m.stats.ReadBusyCycles += m.readOcc
	return start + m.cfg.UnloadedLatency, true
}

// Write requests one line (64B) be written to memory at cycle now. Writes
// are posted: callers never wait on them, so only acceptance and bandwidth
// consumption are modelled. Low-priority writes are dropped when the write
// backlog bound is exceeded (a dropped table write simply loses the
// update, which the correlation table tolerates).
func (m *System) Write(now uint64, pri Priority) (accepted bool) {
	cs := &m.stats.PerClass[pri]
	if pri == Demand {
		start := max64(now, m.demandWriteBusy)
		m.demandWriteBusy = start + m.writeOcc
		if m.tableWriteBusy < m.demandWriteBusy {
			m.tableWriteBusy = m.demandWriteBusy
		}
		cs.Writes++
		m.stats.WriteBusyCycles += m.writeOcc
		return true
	}
	backlog := int64(m.tableWriteBusy) - int64(now)
	if backlog > int64(m.cfg.LowPriorityBacklog)*int64(m.writeOcc) {
		cs.WriteDrops++
		return false
	}
	start := max64(now, m.tableWriteBusy)
	m.tableWriteBusy = start + m.writeOcc
	cs.Writes++
	m.stats.WriteBusyCycles += m.writeOcc
	return true
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
