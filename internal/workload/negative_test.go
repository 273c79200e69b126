package workload

import (
	"errors"
	"math"
	"testing"

	"ebcp/internal/ebcperr"
)

func checkInvalid(t *testing.T, name string, f func() error) {
	t.Helper()
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: panicked (%v), want typed error", name, r)
			}
		}()
		return f()
	}()
	switch {
	case err == nil:
		t.Errorf("%s: accepted, want error", name)
	case !errors.Is(err, ebcperr.ErrInvalidConfig):
		t.Errorf("%s: error %q not classified ErrInvalidConfig", name, err)
	case len(err.Error()) < 10:
		t.Errorf("%s: message %q not descriptive", name, err)
	}
}

func TestNegativeConfigs(t *testing.T) {
	mut := func(f func(*Params)) func() error {
		return func() error {
			p := Database()
			f(&p)
			_, err := New(p)
			return err
		}
	}
	cases := []struct {
		name string
		f    func() error
	}{
		{"empty name", mut(func(p *Params) { p.Name = "" })},
		{"zero CPI", mut(func(p *Params) { p.OnChipCPI = 0 })},
		{"NaN CPI", mut(func(p *Params) { p.OnChipCPI = math.NaN() })},
		{"infinite CPI", mut(func(p *Params) { p.OnChipCPI = math.Inf(1) })},
		{"zero chains", mut(func(p *Params) { p.Chains = 0 })},
		{"zero txn types", mut(func(p *Params) { p.TxnTypes = 0 })},
		{"huge txn types", mut(func(p *Params) { p.TxnTypes = 1 << 50 })},
		{"huge path blocks", mut(func(p *Params) { p.PathBlocks = 1 << 50 })},
		{"huge layouts", mut(func(p *Params) { p.Layouts = 1 << 50 })},
		{"code beyond its region", mut(func(p *Params) { p.CodeLinesPerType = 1 << 57 })},
		{"code one line past its region", mut(func(p *Params) { p.CodeLinesPerType = codeLines/p.TxnTypes + 1 })},
		{"bad align fraction", mut(func(p *Params) { p.AlignFrac = 2 })},
		{"data space beyond a 32-bit head offset", mut(func(p *Params) { p.DataLines = 1<<30 + 1 })},
		{"chain beyond a 16-bit run index", mut(func(p *Params) { p.ChainSteps = [2]int{10, 1<<16 + 1} })},
		{"library beyond a 32-bit step offset", mut(func(p *Params) { p.Chains = math.MaxInt32/40 + 1 })},
		{"successor table beyond 2^31-1 entries", mut(func(p *Params) { p.Branch = 1 << 62 })},
		{"inverted txn gap", mut(func(p *Params) { p.TxnGap = [2]int{800, 200} })},
		{"negative txn gap", mut(func(p *Params) { p.TxnGap = [2]int{-1, 200} })},
		{"txn gap wider than an int", mut(func(p *Params) { p.TxnGap = [2]int{0, math.MaxInt} })},
		{"txn gap beyond a 32-bit record gap", mut(func(p *Params) { p.TxnGap = [2]int{300, maxGap + 1} })},
		{"step beyond a 32-bit record gap", mut(func(p *Params) { p.InstsPerStep = [2]int{200, maxGap + 1} })},
		{"NaN zipf theta", mut(func(p *Params) { p.ZipfTheta = math.NaN() })},
		{"infinite zipf theta", mut(func(p *Params) { p.ZipfTheta = math.Inf(-1) })},
		{"zipf weights overflow", mut(func(p *Params) { p.ZipfTheta = -2000 })},
		{"unknown benchmark", func() error { _, err := ByName("no-such-benchmark"); return err }},
		{"scale zero", func() error { _, err := Scaled(Database(), 0); return err }},
		{"scale above one", func() error { _, err := Scaled(Database(), 1.5); return err }},
	}
	for _, c := range cases {
		checkInvalid(t, c.name, c.f)
	}
}
