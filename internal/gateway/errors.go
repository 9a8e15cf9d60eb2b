package gateway

import (
	"errors"
	"fmt"

	"wavelethpc/internal/proto"
)

// NoBackendsError is the typed fast-fail returned when no backend can
// take the request: either every configured backend's circuit breaker is
// refusing traffic, or every routing attempt died at the transport layer
// without an HTTP response. Clients see it immediately instead of a
// deadline burn; the HTTP layer renders it as 503.
type NoBackendsError struct {
	// Configured is the number of backends the gateway fronts.
	Configured int
	// Tried is how many attempts this request made before giving up
	// (0 when every breaker refused up front).
	Tried int
	// Last is the final transport error, if any attempt was made.
	Last error
}

// Error implements error.
func (e *NoBackendsError) Error() string {
	if e.Last == nil {
		return fmt.Sprintf("gateway: no healthy backends (%d configured, all circuit-broken)", e.Configured)
	}
	return fmt.Sprintf("gateway: no healthy backends (%d configured, %d attempts failed, last: %v)",
		e.Configured, e.Tried, e.Last)
}

// Unwrap exposes the last transport error for errors.Is/As chains.
func (e *NoBackendsError) Unwrap() error { return e.Last }

// errResponseTooLarge marks a backend response longer than
// proto.MaxResponseBytes. The gateway neither forwards nor caches the
// part it read, and does not retry: the client gets a 502.
var errResponseTooLarge = fmt.Errorf("response exceeds %d bytes", proto.MaxResponseBytes)

// ErrDraining is returned once Shutdown has begun: the gateway stops
// admitting work while in-flight requests finish (graceful drain).
var ErrDraining = errors.New("gateway: draining")

// BudgetError reports a retry loop cut short by the deadline budget: the
// remaining client deadline could not fund another backoff + attempt, so
// the gateway returned the last failure instead of blowing the deadline.
type BudgetError struct {
	// Attempts is how many attempts ran before the budget ran out.
	Attempts int
	// Last is the failure of the final attempt.
	Last error
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("gateway: deadline budget exhausted after %d attempts: %v", e.Attempts, e.Last)
}

// Unwrap exposes the last attempt's error.
func (e *BudgetError) Unwrap() error { return e.Last }
