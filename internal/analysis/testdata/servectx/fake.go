// Package fakeserve is a servectx fixture: functions that receive a
// *http.Request must thread r.Context() into the work they start, not
// mint detached roots. The golden test loads it under the virtual path
// internal/fakeserve; the check is not path-scoped, so the path only
// matters for the other analyzers riding along.
package fakeserve

import (
	"context"
	"net/http"

	"ebcp/internal/exp"
)

// detachedBackground builds a fresh root inside a handler: flagged.
func detachedBackground(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() // want `\[servectx\] context.Background in a request-handling function detaches work from the client`
	_ = ctx
}

// detachedTODO is the same hole spelled TODO: flagged.
func detachedTODO(w http.ResponseWriter, r *http.Request) {
	ctx := context.TODO() // want `\[servectx\] context.TODO in a request-handling function detaches work from the client`
	_ = ctx
}

// uncancellableSession starts a session the request cannot cancel:
// flagged.
func uncancellableSession(w http.ResponseWriter, r *http.Request) {
	s := exp.NewSession(exp.Options{}) // want `\[servectx\] exp.NewSession in a request-handling function cannot be cancelled`
	_ = s
}

// threaded is the sanctioned shape: the request's context reaches the
// session. Not flagged.
func threaded(w http.ResponseWriter, r *http.Request) {
	s := exp.NewSessionContext(r.Context(), exp.Options{})
	_ = s
}

// request is an alias of http.Request; a parameter of type *request is
// still a *http.Request.
type request = http.Request

// aliasedRequest receives the request through the alias: flagged.
func aliasedRequest(r *request) {
	ctx := context.TODO() // want `\[servectx\] context.TODO in a request-handling function detaches work from the client`
	_ = ctx
}

// derived contexts rooted on the request are fine too.
func derived(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	_ = ctx
}

// handlerFactory returns its handler as a function literal: the
// literal receives the request, so it is checked like a declared
// handler.
func handlerFactory() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := context.Background() // want `\[servectx\] context.Background in a request-handling function detaches work from the client`
		_ = ctx
	}
}

// nestedInHandler is a closure inside a checked handler: its call is
// reported once.
func nestedInHandler(w http.ResponseWriter, r *http.Request) {
	run := func(r *http.Request) {
		s := exp.NewSession(exp.Options{}) // want `\[servectx\] exp.NewSession in a request-handling function cannot be cancelled`
		_ = s
	}
	run(r)
}

// noRequest never sees a request: out of scope, a Background root is
// legitimate (a daemon main, a test helper, a cron job).
func noRequest() context.Context {
	return context.Background()
}

// requestByValue is not a *http.Request parameter; the check keys on
// the pointer type handlers actually receive.
func requestByValue(r http.Request) context.Context {
	return context.Background()
}

// sanctioned demonstrates suppressing the check where detachment is
// deliberate (e.g. audit logging that must outlive the request).
func sanctioned(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() //ebcp:allow servectx fixture: demonstrates a deliberate post-request detachment
	_ = ctx
}
