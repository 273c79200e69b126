package corrtab

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
	cases := []struct {
		name string
		f    func() error
	}{
		{"zero entries", func() error { _, err := New(Config{Entries: 0, MaxAddrs: 8}); return err }},
		{"negative entries", func() error { _, err := New(Config{Entries: -4, MaxAddrs: 8}); return err }},
		{"non-pow2 entries", func() error { _, err := New(Config{Entries: 3000, MaxAddrs: 8}); return err }},
		{"zero max addrs", func() error { _, err := New(Config{Entries: 1 << 10, MaxAddrs: 0}); return err }},
		{"oversized max addrs", func() error { _, err := New(Config{Entries: 1 << 10, MaxAddrs: 1 << 16}); return err }},
		{"entries above 2^32", func() error {
			above := 2 * maxEntries // a variable, so the conversion compiles on 32-bit hosts
			_, err := New(Config{Entries: int(above), MaxAddrs: 8})
			return err
		}},
	}
	for _, c := range cases {
		checkInvalid(t, c.name, c.f)
	}
}
