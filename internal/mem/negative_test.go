package mem

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
	mut := func(f func(*Config)) func() error {
		return func() error {
			cfg := DefaultConfig()
			f(&cfg)
			_, err := New(cfg)
			return err
		}
	}
	cases := []struct {
		name string
		f    func() error
	}{
		{"zero latency", mut(func(c *Config) { c.UnloadedLatency = 0 })},
		{"zero clock", mut(func(c *Config) { c.CoreGHz = 0 })},
		{"zero read bandwidth", mut(func(c *Config) { c.ReadGBps = 0 })},
		{"negative write bandwidth", mut(func(c *Config) { c.WriteGBps = -1 })},
		{"zero backlog", mut(func(c *Config) { c.LowPriorityBacklog = 0 })},
		{"NaN clock", mut(func(c *Config) { c.CoreGHz = math.NaN() })},
		{"infinite clock", mut(func(c *Config) { c.CoreGHz = math.Inf(1) })},
		{"NaN read bandwidth", mut(func(c *Config) { c.ReadGBps = math.NaN() })},
		{"infinite read bandwidth", mut(func(c *Config) { c.ReadGBps = math.Inf(1) })},
		{"NaN write bandwidth", mut(func(c *Config) { c.WriteGBps = math.NaN() })},
		{"tiny read bandwidth", mut(func(c *Config) { c.ReadGBps = 1e-300 })},
		{"tiny write bandwidth", mut(func(c *Config) { c.WriteGBps = 1e-300 })},
		{"read line occupancy past 2^32 cycles", mut(func(c *Config) { c.ReadGBps = 64 * c.CoreGHz / (maxLineOccupancy * 1.01) })},
		{"huge clock", mut(func(c *Config) { c.CoreGHz = 1e300 })},
	}
	for _, c := range cases {
		checkInvalid(t, c.name, c.f)
	}
}
