// Package specleakout has the same effect calls as the specleak testdata
// but an import path that is not crane/internal/crane: out of scope, so
// no findings.
package specleakout

import "crane/internal/simnet"

// DirectWrite is a client harness writing its own request: fine here.
func DirectWrite(c *simnet.Conn, b []byte) {
	c.Write(b)
}
