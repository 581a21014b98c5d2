package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"crane/internal/crane"
	"crane/internal/simnet"
)

// scratchRoot holds everything a run leaves on disk (WAL dirs, span
// dumps), inside the working directory so a checkout stays self-contained.
const scratchRoot = ".bench_build"

// tempDirs tracks the WAL directories to remove on every exit path.
var tempDirs struct {
	mu   sync.Mutex
	dirs []string
}

func newTempDir(prefix string) (string, error) {
	base := filepath.Join(scratchRoot, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", err
	}
	tempDirs.mu.Lock()
	tempDirs.dirs = append(tempDirs.dirs, dir)
	tempDirs.mu.Unlock()
	return dir, nil
}

func removeTempDirs() {
	tempDirs.mu.Lock()
	defer tempDirs.mu.Unlock()
	for _, d := range tempDirs.dirs {
		os.RemoveAll(d)
	}
	tempDirs.dirs = nil
}

// deployment is one running cluster plus what the client side knows about
// it: which replicas the harness killed, and where the program listens.
type deployment struct {
	w       workload
	mode    crane.Mode
	cluster *crane.Cluster
	walDir  string
	setup   time.Duration // StartCluster to first request served
	stopped bool

	mu   sync.Mutex
	dead map[int]bool
}

// deploy starts w's program under mode, waits for a primary that leads
// every group, prepares server state, and serves one request: the set-up
// a user pays before the first measured request.
func deploy(w workload, mode crane.Mode, seed int64, traced bool, st stream) (*deployment, error) {
	start := now()
	d := &deployment{w: w, mode: mode, dead: map[int]bool{}}
	if w.wal && d.replicated() {
		dir, err := newTempDir(w.name + "-wal-")
		if err != nil {
			return nil, err
		}
		d.walDir = dir
	}
	cluster, err := crane.StartCluster(w.config(mode, seed, traced, d.walDir), w.program())
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", w.name, mode, err)
	}
	d.cluster = cluster
	if _, err := d.primary(now().Add(5 * time.Second)); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s/%s: %w", w.name, mode, err)
	}
	if p, ok := st.(preparer); ok {
		if err := p.prepare(d); err != nil {
			d.stop()
			return nil, fmt.Errorf("%s/%s: prepare: %w", w.name, mode, err)
		}
	}
	// The first request is part of set-up: it pays for whatever the
	// deployment still does lazily.
	var sp span
	d.do(st.next(0), "setup:0", &sp)
	if sp.Err != "" {
		d.stop()
		return nil, fmt.Errorf("%s/%s: first request: %s", w.name, mode, sp.Err)
	}
	d.setup = since(start)
	return d, nil
}

// stop tears the cluster down. The program closes each replica's WAL right
// after asking its consensus loops to stop, not after they have stopped, so
// a commit still in flight panics the process ("wal append: wal: closed").
// Cutting every replica off the hub first and letting in-flight rounds
// drain leaves nothing to commit.
func (d *deployment) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	if d.walDir != "" {
		for i := 0; i < d.cluster.Replicas(); i++ {
			d.cluster.PartitionReplica(i)
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.cluster.Stop()
}

func (d *deployment) replicated() bool {
	return d.mode == crane.ModeCrane || d.mode == crane.ModePaxosOnly
}

// live returns the ids of the replicas the harness has not killed.
func (d *deployment) live() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ids []int
	for i := 0; i < d.cluster.Replicas(); i++ {
		if !d.dead[i] {
			ids = append(ids, i)
		}
	}
	return ids
}

func (d *deployment) markDead(id int, dead bool) {
	d.mu.Lock()
	d.dead[id] = dead
	d.mu.Unlock()
}

var errNoPrimary = errors.New("no primary leads every group")

// primaryNow returns the live replica that leads every Paxos group, if one
// does right now. Clients must not be sent to a replica that leads only
// some groups: it refuses connections that hash to the others.
func (d *deployment) primaryNow() (*crane.Replica, bool) {
	if !d.replicated() {
		return d.cluster.Replica(0), true
	}
	for _, id := range d.live() {
		if r := d.cluster.Replica(id); r.IsPrimary() && r.LeadsAllGroups() {
			return r, true
		}
	}
	return nil, false
}

// primary polls primaryNow until the deadline.
func (d *deployment) primary(deadline time.Time) (*crane.Replica, error) {
	for {
		if r, ok := d.primaryNow(); ok {
			return r, nil
		}
		if !now().Before(deadline) {
			return nil, errNoPrimary
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// dial connects a named client to the current primary, waiting out leader
// changes until the deadline.
func (d *deployment) dial(client string, deadline time.Time) (*simnet.Conn, error) {
	for {
		r, err := d.primary(deadline)
		if err != nil {
			return nil, err
		}
		conn, err := d.cluster.Net().Dial(simnet.Addr(client), d.cluster.Addr(r.ID(), d.w.port))
		if err == nil {
			return conn, nil
		}
		if !now().Before(deadline) {
			return nil, fmt.Errorf("dial: %w", err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// readUntil reads from conn until complete(acc) or an error.
func readUntil(conn *simnet.Conn, complete func([]byte) bool, firstByte *time.Time) ([]byte, error) {
	var acc []byte
	buf := make([]byte, 8192)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			if len(acc) == 0 && firstByte != nil {
				*firstByte = now()
			}
			acc = append(acc, buf[:n]...)
			if complete(acc) {
				return acc, nil
			}
		}
		if err != nil {
			return acc, err
		}
	}
}

// roundTrip performs one unmeasured request with the retry rules of a
// measured one and returns the whole response.
func (d *deployment) roundTrip(client string, payload []byte, complete func([]byte) bool) ([]byte, error) {
	var resp []byte
	var sp span
	d.do(&request{payload: payload, complete: complete, check: func(r []byte) error {
		resp = r
		return nil
	}}, client, &sp)
	if sp.Err != "" {
		return nil, errors.New(sp.Err)
	}
	return resp, nil
}

// session sends line-protocol statements over one connection, one round
// trip each, requiring every reply to start with want.
func (d *deployment) session(client string, stmts []string, want string) error {
	deadline := now().Add(30 * time.Second)
	conn, err := d.dial(client, deadline)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetReadDeadline(deadline)
	for _, stmt := range stmts {
		if _, err := conn.Write([]byte(stmt + "\n")); err != nil {
			return err
		}
		resp, err := readUntil(conn, mysqlComplete, nil)
		if err != nil {
			return fmt.Errorf("%q: %w", stmt, err)
		}
		if !strings.HasPrefix(string(resp), want) {
			return fmt.Errorf("%q -> %q", stmt, clip(resp))
		}
	}
	_, err = conn.Write([]byte("QUIT\n"))
	return err
}
