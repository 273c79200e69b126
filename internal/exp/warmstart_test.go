package exp

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ebcp/internal/amo"
	"ebcp/internal/core"
	"ebcp/internal/corrtab"
	"ebcp/internal/ebcperr"
	"ebcp/internal/prefetch"
	"ebcp/internal/workload"
)

// writeTableFile serializes a table with the given geometry (and a few
// deterministic rows) to a temp file, returning its path.
func writeTableFile(t *testing.T, entries, maxAddrs int) string {
	t.Helper()
	tab, err := corrtab.New(corrtab.Config{Entries: entries, MaxAddrs: maxAddrs})
	if err != nil {
		t.Fatal(err)
	}
	tab.Update(amo.Line(3), []amo.Line{10, 11})
	tab.Update(amo.Line(7), []amo.Line{20, 21, 22})
	path := filepath.Join(t.TempDir(), "corrtab.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := corrtab.Encode(f, tab); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// warmReq is an EBCP cell at the default geometry.
func warmReq(b workload.Params) cellReq {
	return cellReq{
		key:   "warmstart/" + b.Name,
		bench: b,
		pf:    func() (prefetch.Prefetcher, error) { return core.New(core.DefaultConfig()) },
	}
}

func TestOptionsLoadCorrtabWarmStartsEBCP(t *testing.T) {
	dflt := core.DefaultConfig()
	path := writeTableFile(t, dflt.TableEntries, dflt.TableMaxAddrs)
	b := workload.Database()
	s := NewSession(Options{Warm: 200e3, Measure: 200e3, LoadCorrtab: path})

	o := s.resolve(warmReq(b))
	if o.err != nil {
		t.Fatalf("warm-started cell failed: %v", o.err)
	}
	if o.single().Core.Instructions == 0 {
		t.Error("warm-started cell produced no instructions")
	}

	// Non-EBCP cells must pass through untouched.
	if err := s.resolve(baselineReq(b)).err; err != nil {
		t.Fatalf("baseline cell failed under LoadCorrtab: %v", err)
	}
}

func TestOptionsLoadCorrtabRejectsGeometryMismatch(t *testing.T) {
	dflt := core.DefaultConfig()
	path := writeTableFile(t, dflt.TableEntries/2, dflt.TableMaxAddrs)
	s := NewSession(Options{Warm: 200e3, Measure: 200e3, LoadCorrtab: path})
	if err := s.resolve(warmReq(workload.Database())).err; !errors.Is(err, ebcperr.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig for mismatched table geometry", err)
	}
}

func TestOptionsLoadCorrtabMissingFile(t *testing.T) {
	s := NewSession(Options{Warm: 200e3, Measure: 200e3,
		LoadCorrtab: filepath.Join(t.TempDir(), "absent.json")})
	if err := s.resolve(warmReq(workload.Database())).err; !errors.Is(err, ebcperr.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig for a missing table file", err)
	}
}

// TestOptionsLoadCorrtabReadOncePerSession rewrites the table file
// between two cells of one session. The session must keep the bytes it
// read first — the second cell still restores them (the rewritten table
// has the wrong geometry, so restoring it would fail) — and key the
// second cell by those bytes, exactly as a fresh session over them does.
func TestOptionsLoadCorrtabReadOncePerSession(t *testing.T) {
	dflt := core.DefaultConfig()
	path := writeTableFile(t, dflt.TableEntries, dflt.TableMaxAddrs)
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Warm: 200e3, Measure: 200e3, LoadCorrtab: path}
	s := NewSession(opts)
	if err := s.resolve(warmReq(workload.Database())).err; err != nil {
		t.Fatalf("first cell: %v", err)
	}

	rewritten, err := os.ReadFile(writeTableFile(t, dflt.TableEntries/2, dflt.TableMaxAddrs))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, rewritten, 0o644); err != nil {
		t.Fatal(err)
	}
	second := warmReq(workload.TPCW())
	if err := s.resolve(second).err; err != nil {
		t.Fatalf("second cell restored the rewritten table: %v", err)
	}

	got, err := s.cellKey(second)
	if err != nil {
		t.Fatal(err)
	}
	fresh := opts
	fresh.LoadCorrtab = filepath.Join(t.TempDir(), "first.json")
	if err := os.WriteFile(fresh.LoadCorrtab, first, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.CellKey("sim", second.key, second.bench)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("second cell's key does not hash the bytes the session first read")
	}
}
