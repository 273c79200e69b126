package cpu

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
	cases := []struct {
		name string
		f    func() error
	}{
		{"zero ROB", func() error { _, err := New(Config{ROBSize: 0, OnChipCPI: 1, MaxOutstanding: 32}); return err }},
		{"zero CPI", func() error { _, err := New(Config{ROBSize: 128, OnChipCPI: 0, MaxOutstanding: 32}); return err }},
		{"negative CPI", func() error { _, err := New(Config{ROBSize: 128, OnChipCPI: -1, MaxOutstanding: 32}); return err }},
		{"NaN CPI", func() error {
			_, err := New(Config{ROBSize: 128, OnChipCPI: math.NaN(), MaxOutstanding: 32})
			return err
		}},
		{"infinite CPI", func() error {
			_, err := New(Config{ROBSize: 128, OnChipCPI: math.Inf(1), MaxOutstanding: 32})
			return err
		}},
		{"zero outstanding", func() error { _, err := New(Config{ROBSize: 128, OnChipCPI: 1, MaxOutstanding: 0}); return err }},
	}
	for _, c := range cases {
		checkInvalid(t, c.name, c.f)
	}
}
