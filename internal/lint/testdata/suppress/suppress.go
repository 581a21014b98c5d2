// Package suppress holds an intentionally reasonless suppression; the
// framework must reject it and keep the underlying finding alive. The
// test loads it under an internal/apps import path.
package suppress

import "time"

// Stamp carries an invalid (reasonless) suppression.
func Stamp() time.Time {
	//crane:nondet-ok
	return time.Now()
}
