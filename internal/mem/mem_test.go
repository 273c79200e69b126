package mem

import (
	"testing"
	"testing/quick"

	"ebcp/internal/metrics"
)

func defaultSystem() *System { return must(New(DefaultConfig())) }

func TestOccupancyDerivation(t *testing.T) {
	// 9.6 GB/s at 3 GHz = 3.2 B/cycle -> 64B = 20 cycles; 4.8 GB/s ->
	// 1.6 B/cycle -> 40 cycles.
	for _, c := range []struct {
		gbps float64
		want uint64
	}{{9.6, 20}, {4.8, 40}, {3.2, 60}} {
		if got := lineOccupancy(c.gbps, 3); got != c.want {
			t.Errorf("lineOccupancy(%v GB/s, 3 GHz) = %d, want %d", c.gbps, got, c.want)
		}
	}

	// The derived occupancy is what spaces back-to-back reads.
	cfg := DefaultConfig()
	cfg.ReadGBps = 3.2
	low := must(New(cfg))
	c1, _ := low.Read(0, Demand)
	c2, _ := low.Read(0, Demand)
	if c2-c1 != 60 {
		t.Errorf("3.2GB/s back-to-back reads complete %d cycles apart, want 60", c2-c1)
	}
}

func TestDemandReadUncontended(t *testing.T) {
	m := defaultSystem()
	c, ok := m.Read(1000, Demand)
	if !ok {
		t.Fatal("demand read must be accepted")
	}
	if c != 1500 {
		t.Errorf("completion = %d, want 1500 (unloaded latency)", c)
	}
}

func TestDemandReadsSerializeOnBus(t *testing.T) {
	m := defaultSystem()
	c1, _ := m.Read(0, Demand)
	c2, _ := m.Read(0, Demand)
	c3, _ := m.Read(0, Demand)
	if c1 != 500 || c2 != 520 || c3 != 540 {
		t.Errorf("completions = %d,%d,%d; want 500,520,540 (20-cycle beats)", c1, c2, c3)
	}
}

func TestDemandNotDelayedByLowPriority(t *testing.T) {
	m := defaultSystem()
	// Saturate the read bus with prefetch traffic.
	for i := 0; i < 10; i++ {
		m.Read(0, PrefetchData)
	}
	c, ok := m.Read(0, Demand)
	if !ok || c != 500 {
		t.Errorf("demand read delayed by prefetch traffic: completion=%d ok=%v", c, ok)
	}
}

func TestLowPrioritySerializesBehindDemand(t *testing.T) {
	m := defaultSystem()
	m.Read(0, Demand) // occupies read bus [0,20)
	c, ok := m.Read(0, TableRead)
	if !ok {
		t.Fatal("table read should be accepted with empty backlog")
	}
	if c != 520 {
		t.Errorf("table read completion = %d, want 520 (starts after demand beat)", c)
	}
}

func TestLowPriorityDropOnBacklog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LowPriorityBacklog = 4
	m := must(New(cfg))
	accepted := 0
	for i := 0; i < 50; i++ {
		if _, ok := m.Read(0, PrefetchData); ok {
			accepted++
		}
	}
	// Backlog bound of 4 transfers: first request sees backlog 0, and each
	// accepted one adds 20 cycles; acceptance stops once backlog exceeds 80.
	if accepted >= 50 || accepted < 4 {
		t.Errorf("accepted %d prefetches, want a small bounded number", accepted)
	}
	st := m.Stats()
	if st.Prefetch.ReadDrops != uint64(50-accepted) {
		t.Errorf("drops = %d, want %d", st.Prefetch.ReadDrops, 50-accepted)
	}
	// Backlog drains with time: much later, requests are accepted again.
	if _, ok := m.Read(100000, PrefetchData); !ok {
		t.Error("backlog should drain over time")
	}
}

func TestWritePostedAndDropped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LowPriorityBacklog = 2
	m := must(New(cfg))
	if !m.Write(0, Demand) {
		t.Fatal("demand write must be accepted")
	}
	drops := 0
	for i := 0; i < 20; i++ {
		if !m.Write(0, TableWrite) {
			drops++
		}
	}
	if drops == 0 {
		t.Error("table writes should be dropped once the write backlog fills")
	}
	if m.Stats().TableWrite.WriteDrops != uint64(drops) {
		t.Errorf("stats drops = %d, want %d", m.Stats().TableWrite.WriteDrops, drops)
	}
}

// TestReadBacklog checks the read queue through Read: a low-priority read
// waits for the bus work queued ahead of it, and none is left once that
// work has drained.
func TestReadBacklog(t *testing.T) {
	m := defaultSystem()
	if c, _ := m.Read(0, PrefetchData); c != 500 {
		t.Errorf("read on an idle bus completes at %d, want 500", c)
	}
	m = defaultSystem()
	m.Read(0, Demand)
	if c, _ := m.Read(0, PrefetchData); c != 520 {
		t.Errorf("read behind one queued transfer completes at %d, want 520", c)
	}
	if c, _ := m.Read(1000, PrefetchData); c != 1500 {
		t.Errorf("read after the queue drained completes at %d, want 1500", c)
	}
}

func TestStatsAccounting(t *testing.T) {
	m := defaultSystem()
	m.Read(0, Demand)
	m.Read(0, TableRead)
	m.Write(0, TableWrite)
	st := m.Stats()
	if st.Demand.Reads != 1 || st.TableRead.Reads != 1 {
		t.Errorf("read counts wrong: %+v", st)
	}
	if st.TableWrite.Writes != 1 {
		t.Errorf("write counts wrong: %+v", st)
	}
	if st.ReadBusyCycles != 40 || st.WriteBusyCycles != 40 {
		t.Errorf("busy cycles = %d/%d", st.ReadBusyCycles, st.WriteBusyCycles)
	}
	m.ResetStats()
	if m.Stats() != (metrics.MemCounters{}) {
		t.Error("ResetStats should clear counters")
	}
}

func TestCompletionMonotonicInTimeProperty(t *testing.T) {
	// For a fixed system, issuing demand reads at nondecreasing times yields
	// nondecreasing completions, and completion >= now + latency always.
	f := func(gaps []uint8) bool {
		m := defaultSystem()
		var now, prev uint64
		for _, g := range gaps {
			now += uint64(g)
			c, ok := m.Read(now, Demand)
			if !ok || c < now+m.cfg.UnloadedLatency || c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{},
		{UnloadedLatency: 500, CoreGHz: 0, ReadGBps: 9.6, WriteGBps: 4.8, LowPriorityBacklog: 8},
		{UnloadedLatency: 500, CoreGHz: 3, ReadGBps: 0, WriteGBps: 4.8, LowPriorityBacklog: 8},
		{UnloadedLatency: 500, CoreGHz: 3, ReadGBps: 9.6, WriteGBps: 4.8, LowPriorityBacklog: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestPriorityString(t *testing.T) {
	names := map[Priority]string{Demand: "demand", TableRead: "table-read", PrefetchData: "prefetch", TableWrite: "table-write"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestTableReadJumpsPrefetchQueue(t *testing.T) {
	// Strict priority between the low classes: a table read must not wait
	// behind queued prefetch data.
	m := defaultSystem()
	for i := 0; i < 30; i++ {
		m.Read(0, PrefetchData)
	}
	c, ok := m.Read(0, TableRead)
	if !ok {
		t.Fatal("table read dropped despite an empty table-read queue")
	}
	if c != 500 {
		// Priority is modelled as preemptive: the read sees only demand
		// and table-read reservations, none of which exist here.
		t.Errorf("table read completion = %d, want 500 (not behind the prefetch backlog)", c)
	}
}

func TestCascadePushesLowerCursors(t *testing.T) {
	// Higher-class reservations push the cursors of lower classes: after
	// a demand burst, table reads and prefetches both start later.
	m := defaultSystem()
	for i := 0; i < 5; i++ {
		m.Read(0, Demand) // occupies [0,100)
	}
	c1, _ := m.Read(0, TableRead)
	if c1 != 100+500 {
		t.Errorf("table read after demand burst completes at %d, want 600", c1)
	}
	c2, _ := m.Read(0, PrefetchData)
	if c2 != 120+500 {
		t.Errorf("prefetch after demand+table completes at %d, want 620", c2)
	}
}

func TestPerClassBacklogIndependence(t *testing.T) {
	// Filling the prefetch queue must not cause table-read drops.
	cfg := DefaultConfig()
	cfg.LowPriorityBacklog = 4
	m := must(New(cfg))
	for i := 0; i < 50; i++ {
		m.Read(0, PrefetchData)
	}
	if m.Stats().Prefetch.ReadDrops == 0 {
		t.Fatal("expected prefetch drops")
	}
	if _, ok := m.Read(0, TableRead); !ok {
		t.Error("table read dropped because of prefetch backlog")
	}
	if m.Stats().TableRead.ReadDrops != 0 {
		t.Error("table-read drops should be independent of the prefetch queue")
	}
}
