package serve

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"ebcp/internal/ebcperr"
)

// TestStatusOf pins the sentinel→status table: every ebcperr class maps
// to exactly one code, wrapped errors map like their class, and
// unclassified errors are 500s.
func TestStatusOf(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ebcperr.ErrInvalidConfig, http.StatusBadRequest},
		{ebcperr.Invalidf("bench_scale 7 out of range"), http.StatusBadRequest},
		{ebcperr.ErrBadReport, http.StatusBadRequest},
		{ebcperr.ErrShortTrace, http.StatusUnprocessableEntity},
		{ebcperr.Wrap(ebcperr.ErrShortTrace, "trace ended at 42"), http.StatusUnprocessableEntity},
		{ebcperr.ErrOverloaded, http.StatusTooManyRequests},
		{ebcperr.Wrap(ebcperr.ErrOverloaded, "queue full"), http.StatusTooManyRequests},
		{ebcperr.ErrCancelled, StatusClientClosedRequest},
		{ebcperr.Cancelledf("client went away"), StatusClientClosedRequest},
		{ebcperr.ErrInvariant, http.StatusInternalServerError},
		{errors.New("some unclassified failure"), http.StatusInternalServerError},
		{fmt.Errorf("wrapped unclassified: %w", errors.New("inner")), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := StatusOf(c.err); got != c.want {
			t.Errorf("StatusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestStatusTableCoversEverySentinel: adding a sentinel to ebcperr
// without deciding its HTTP mapping should fail here, not default to
// 500 silently.
func TestStatusTableCoversEverySentinel(t *testing.T) {
	sentinels := []error{
		ebcperr.ErrInvalidConfig,
		ebcperr.ErrShortTrace,
		ebcperr.ErrCancelled,
		ebcperr.ErrBadReport,
		ebcperr.ErrInvariant,
		ebcperr.ErrOverloaded,
	}
	if len(statusTable) != len(sentinels) {
		t.Fatalf("status table has %d rows for %d sentinels — keep them in sync", len(statusTable), len(sentinels))
	}
	for _, s := range sentinels {
		found := false
		for _, m := range statusTable {
			if errors.Is(s, m.sentinel) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sentinel %v has no status mapping", s)
		}
	}
}
