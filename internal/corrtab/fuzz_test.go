package corrtab

import (
	"testing"

	"ebcp/internal/amo"
)

// fuzzLine maps one input byte to a line. Its low 5 bits pick one of 32
// values, so lines collide often in a 16-entry table; its top 3 bits pick
// the magnitude: small lines, lines at the top of the 40-bit narrow range,
// and (for 7) a line at or above 2^40, which widens the table.
func fuzzLine(b byte) amo.Line {
	v := amo.Line(b & 31)
	switch b >> 5 {
	case 5:
		return v | 1<<39
	case 6:
		return 1<<40 - 1 - v
	case 7:
		return v<<59 | 1<<40 | v
	default:
		return v
	}
}

// FuzzTableVsReference drives the table and the reference model with an
// operation stream decoded from the input and requires the same lookups,
// counters and occupancy after every operation, across any mix of narrow
// and wide lines. The first byte sets MaxAddrs; each operation is an
// opcode byte (low 2 bits: update, update, lookup, touch; the rest an
// address count for updates) followed by its line bytes.
func FuzzTableVsReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{Entries: 16, MaxAddrs: 1 + int(data[0]%8)}
		tb, ref := must(New(cfg)), newRef(cfg)
		next := func() amo.Line {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return fuzzLine(b)
		}
		data = data[1:]
		for step := 0; len(data) > 0; step++ {
			op := data[0]
			data = data[1:]
			switch key := next(); op & 3 {
			case 0, 1:
				addrs := make([]amo.Line, int(op>>2)%(cfg.MaxAddrs+3))
				for i := range addrs {
					addrs[i] = next()
				}
				tb.Update(key, addrs)
				ref.Update(key, addrs)
			case 2:
				if got, want := tb.Lookup(key), ref.Lookup(key); !sameLines(got, want) {
					t.Fatalf("step %d: Lookup(%v) = %v, ref %v", step, key, got, want)
				}
			case 3:
				a := next()
				tb.Touch(tb.Index(key), a)
				ref.Touch(tb.Index(key), a)
			}
			if tb.Stats() != ref.stats || tb.Occupancy() != len(ref.m) {
				t.Fatalf("step %d: stats %+v occupancy %d, ref %+v %d", step, tb.Stats(), tb.Occupancy(), ref.stats, len(ref.m))
			}
		}
	})
}
