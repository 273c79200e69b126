package serve

import (
	"errors"
	"net/http"

	"ebcp/internal/ebcperr"
)

// StatusClientClosedRequest is nginx's conventional code for a request
// whose client went away (or whose deadline expired) before the
// response was produced; net/http has no named constant for it.
const StatusClientClosedRequest = 499

// statusTable is the single place an ebcperr sentinel maps to an HTTP
// status — handlers call StatusOf instead of switching ad hoc. Order is
// significance order: the first sentinel an error matches wins, so a
// chain wrapping both a cancellation and a config error reports the
// more actionable class first.
var statusTable = []struct {
	sentinel error
	code     int
}{
	{ebcperr.ErrInvalidConfig, http.StatusBadRequest},       // 400: the request described an unbuildable cell
	{ebcperr.ErrBadReport, http.StatusBadRequest},           // 400: undecodable document (schema drift)
	{ebcperr.ErrShortTrace, http.StatusUnprocessableEntity}, // 422: well-formed request, un-runnable windows
	{ebcperr.ErrOverloaded, http.StatusTooManyRequests},     // 429: bounded queue full — retry later
	{ebcperr.ErrCancelled, StatusClientClosedRequest},       // 499: deadline or client disconnect
	{ebcperr.ErrInvariant, http.StatusInternalServerError},  // 500: the server's own numbers are untrustworthy
}

// StatusOf returns the HTTP status for an error by its ebcperr class;
// unclassified errors are internal server errors.
func StatusOf(err error) int {
	for _, m := range statusTable {
		if errors.Is(err, m.sentinel) {
			return m.code
		}
	}
	return http.StatusInternalServerError
}
