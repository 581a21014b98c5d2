package main

import "time"

// now is the harness measurement clock. The harness sits on the client
// side of the wire and around the cluster, never inside the replicated
// state machine: its timestamps time requests, phases and drivers and no
// replica ever sees one. Reading the clock through this variable, as
// internal/apps/clients does, also keeps cranevet's flow-insensitive taint
// from smearing a phase timing onto the cluster configs that the same
// structs carry.
var now = time.Now //crane:detflow-ok harness measurement clock on the client side of the wire; never reaches replicated state

func since(t time.Time) time.Duration { return now().Sub(t) }

func until(t time.Time) time.Duration { return t.Sub(now()) }
