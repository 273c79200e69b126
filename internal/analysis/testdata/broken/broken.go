// Package broken deliberately fails type-checking: the loader-failure
// regression test asserts the driver reports positioned [typecheck]
// diagnostics for it (never a panic, never a silent skip), that the
// driver skips its nil-Info package, and that its unused allow
// below is never judged stale — an untyped package proves nothing.
package broken

import "ebcp/internal/amo"

//ebcp:allow nopanic fixture: must never be judged stale while the package is untyped
func boom(l amo.Line) int {
	var s string = l
	return s + 1
}
