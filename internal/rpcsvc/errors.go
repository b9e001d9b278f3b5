package rpcsvc

import (
	"errors"
	"io"
	"net"
	"net/rpc"
	"strings"
)

// Typed errors for the session protocol. net/rpc flattens server-side errors
// to strings on the wire (the client sees an rpc.ServerError), so each
// sentinel embeds a stable marker substring and the Is* classifiers match
// both in-process (errors.Is) and over the wire (marker search). The markers
// are wire protocol: docs/PROTOCOL.md pins them, and changing one breaks old
// clients' error discrimination.
const (
	evictedMarker    = "[rpcsvc:evicted]"
	seqGapMarker     = "[rpcsvc:seq-gap]"
	wrongShardMarker = "[rpcsvc:wrong-shard]"
	drainingMarker   = "[rpcsvc:draining]"
	overloadedMarker = "[rpcsvc:overloaded]"
	exhaustedMarker  = "[rpcsvc:retries-exhausted]"
)

// ErrSessionEvicted reports the session no longer exists on the server: it
// was closed, LRU-evicted, idle-swept, or lost to a server restart. The
// client-side mirror is reconstructable, so the documented recovery is to
// reopen and resend the full state as the first delta (SessionScheduler does
// this automatically).
var ErrSessionEvicted = errors.New("session evicted " + evictedMarker)

// ErrSeqGap reports an event arrived out of order (its Seq is not the
// previous event's Seq + 1). The mirror is left untouched; recovery is the
// same reopen-and-resend as eviction.
var ErrSeqGap = errors.New("event sequence gap " + seqGapMarker)

// ErrWrongShard reports that the session's placement moved: a fleet router
// migrated it off its replica (drain, replica loss) and the session no
// longer lives where the client's events are addressed. Recovery is the
// eviction path — reopen from the client snapshot; the reopen routes to the
// session's new owner.
var ErrWrongShard = errors.New("session moved to another shard " + wrongShardMarker)

// ErrReplicaDraining reports the contacted replica (or an entire fleet) is
// draining and accepts no new sessions. Existing sessions keep serving
// until migrated; the documented recovery for an Open is to back off and
// retry — on a fleet the router re-routes, on a single server a replacement
// process typically takes over the address.
var ErrReplicaDraining = errors.New("replica draining, not accepting sessions " + drainingMarker)

// ErrOverloaded reports the server shed the request before doing any work on
// it: the admission gate was saturated (in-flight events past
// MaxInflight) or the request's deadline budget was already spent when its
// turn came. Shedding always happens before the session mirror mutates, so
// the session — and its seq — are intact: the documented recovery is to back
// off (with jitter) and retry the same event on the same connection. No
// redial, no reopen. The condition is transient by nature but deliberately
// NOT matched by IsTransient: it is an application answer from a healthy
// server, and a fleet router must forward it verbatim rather than fail the
// replica over.
var ErrOverloaded = errors.New("server overloaded, request shed " + overloadedMarker)

// ErrRetriesExhausted reports a SessionScheduler spent its whole per-event
// retry budget (MaxRetries attempts or the MaxElapsed wall-clock cap) without
// a successful answer. It is permanent for the event: the scheduler stops
// retrying, decides via Fallback and enters degraded mode. Client-side only —
// it never crosses the wire — but it carries a marker like its peers so the
// classification matrix stays uniform.
var ErrRetriesExhausted = errors.New("retry budget exhausted " + exhaustedMarker)

// IsSessionEvicted reports whether err means the session is gone from the
// server, in-process or over the wire.
func IsSessionEvicted(err error) bool {
	return err != nil && (errors.Is(err, ErrSessionEvicted) || strings.Contains(err.Error(), evictedMarker))
}

// IsSeqGap reports whether err is a sequence-ordering rejection, in-process
// or over the wire.
func IsSeqGap(err error) bool {
	return err != nil && (errors.Is(err, ErrSeqGap) || strings.Contains(err.Error(), seqGapMarker))
}

// IsWrongShard reports whether err means the session was migrated to
// another replica, in-process or over the wire.
func IsWrongShard(err error) bool {
	return err != nil && (errors.Is(err, ErrWrongShard) || strings.Contains(err.Error(), wrongShardMarker))
}

// IsReplicaDraining reports whether err is a draining rejection, in-process
// or over the wire.
func IsReplicaDraining(err error) bool {
	return err != nil && (errors.Is(err, ErrReplicaDraining) || strings.Contains(err.Error(), drainingMarker))
}

// IsOverloaded reports whether err is an overload shed (admission gate or
// deadline budget), in-process or over the wire.
func IsOverloaded(err error) bool {
	return err != nil && (errors.Is(err, ErrOverloaded) || strings.Contains(err.Error(), overloadedMarker))
}

// IsRetriesExhausted reports whether err is a client retry-budget
// exhaustion.
func IsRetriesExhausted(err error) bool {
	return err != nil && (errors.Is(err, ErrRetriesExhausted) || strings.Contains(err.Error(), exhaustedMarker))
}

// IsTransient reports whether err looks like a transport failure worth
// retrying on a fresh connection: the connection died (rpc.ErrShutdown,
// EOF), or any network-level error (refused, reset, timeout). Application
// errors the server answered with — including eviction and seq-gap — are
// never transient; they have their own recovery paths.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}
