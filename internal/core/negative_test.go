package core

import (
	"errors"
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
		{"zero table entries", mut(func(c *Config) { c.TableEntries = 0 })},
		{"non-pow2 table entries", mut(func(c *Config) { c.TableEntries = 3000 })},
		{"zero table addrs", mut(func(c *Config) { c.TableMaxAddrs = 0 })},
		{"zero degree", mut(func(c *Config) { c.Degree = 0 })},
		{"EMAB too shallow", mut(func(c *Config) { c.EMABEpochs = 2 })},
		{"zero virtual window", mut(func(c *Config) { c.VirtualWindow = 0 })},
		{"negative cores", mut(func(c *Config) { c.Cores = -1 })},
	}
	for _, c := range cases {
		checkInvalid(t, c.name, c.f)
	}
}
