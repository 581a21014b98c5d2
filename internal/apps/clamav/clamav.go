// Package clamav reimplements the concurrency structure of the ClamAV
// scanning daemon evaluated in §7: an anti-virus server that "scans files
// in parallel and deletes malicious ones". A listener thread accepts
// clamdscan connections; handler threads parse SCAN commands and fan the
// target directory's files out to a pool of scanner threads; infected
// files are removed from the container filesystem. The workload's 18
// socket calls per request come from clamdscan streaming one command and
// reading a multi-line report.
package clamav

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"crane/internal/cfs"
	"crane/internal/papi"
)

// Config shapes the daemon.
type Config struct {
	// Handlers is the number of connection-handler threads (default 6;
	// must exceed workload concurrency plus in-flight connection
	// hand-offs, see DESIGN.md's liveness note).
	Handlers int
	// Scanners is the parallel file-scanner pool size (default 8).
	Scanners int
	// WorkPerKB is scan compute per 1024 bytes of file content.
	WorkPerKB int
	// Port is the clamd listening port (default 3310).
	Port int
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{Handlers: 6, Scanners: 8, WorkPerKB: 40, Port: 3310}
}

// Program packages the daemon for deployment.
func Program(cfg Config) papi.Program {
	if cfg.Port == 0 {
		cfg.Port = 3310
	}
	if cfg.Handlers == 0 {
		cfg.Handlers = 2
	}
	if cfg.Scanners == 0 {
		cfg.Scanners = 8
	}
	if cfg.WorkPerKB == 0 {
		cfg.WorkPerKB = 40
	}
	return papi.Program{
		Name:    "clamav",
		Ports:   []int{cfg.Port},
		Install: Install,
		New: func(fs *cfs.FS) papi.Instance {
			return New(cfg, fs)
		},
		// A scan request is a self-contained unit: its jobs, result
		// gathering, and report never touch another request's state (file
		// deletions are idempotent and path-disjoint in practice). Lanes
		// partition whole requests, connection-round-robin.
		Conflict: &papi.ConflictMap{},
	}
}

// signature is the test pattern scanned for (the EICAR test file's role).
const signature = "EICAR-STANDARD-ANTIVIRUS-TEST"

// Install writes the virus database and the source tree the benchmark
// scans (the paper scans ClamAV's own source and installation
// directories).
func Install(fs *cfs.FS) {
	var db bytes.Buffer
	db.WriteString("ClamAV-VDB:main:1\n")
	db.WriteString("Eicar-Test-Signature:" + signature + "\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&db, "Sig.%04d:%016x\n", i, papi.DetRand(uint64(i)))
	}
	fs.Write("db/main.cvd", db.Bytes())

	// A source tree of deterministic, varied-size files.
	for i := 0; i < 36; i++ {
		size := 512 + papi.DetRandN(uint64(i)*7919, 8192)
		content := make([]byte, 0, size)
		for len(content) < size {
			content = append(content,
				[]byte(fmt.Sprintf("/* src file %d line %d */\n", i, len(content)))...)
		}
		fs.Write(fmt.Sprintf("src/clamav/file%02d.c", i), content)
	}
	// Two infected files.
	fs.Write("src/clamav/malware0.bin", []byte("X5O!P%@AP"+signature+"!$H+H*"))
	fs.Write("src/clamav/deep/malware1.bin", []byte("payload "+signature+" tail"))
}

// Server is one replica-local clamd instance.
type Server struct {
	cfg Config
	fs  *cfs.FS

	stateMu  sync.Mutex //crane:nondet-ok guards counters for Snapshot, which the checkpoint layer drives at quiescent points outside the DMT schedule
	scanned  uint64
	infected uint64
}

// New creates an instance bound to the replica filesystem.
func New(cfg Config, fs *cfs.FS) *Server {
	return &Server{cfg: cfg, fs: fs}
}

type snapState struct{ Scanned, Infected uint64 }

// Snapshot implements papi.Instance.
func (s *Server) Snapshot() ([]byte, error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snapState{s.scanned, s.infected})
	return buf.Bytes(), err
}

// Restore implements papi.Instance.
func (s *Server) Restore(b []byte) error {
	var st snapState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.scanned, s.infected = st.Scanned, st.Infected
	return nil
}

// Totals returns (scanned, infected) counters.
func (s *Server) Totals() (uint64, uint64) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.scanned, s.infected
}

// scanJob is one file to scan; result strings are gathered per request.
type scanJob struct {
	path    string
	results *scanResults
}

type scanResults struct {
	mu      papi.Mutex
	cond    papi.Cond
	pending int
	found   []string
	scanned int
}

// laneCtx is one lane's complete private machinery: job queue,
// connection queue, and their locks. Nothing is shared across lanes.
type laneCtx struct {
	lane   int
	jobs   []scanJob
	jobMu  papi.Mutex
	jobCv  papi.Cond
	connCh []papi.Conn
	cMu    papi.Mutex
	cCv    papi.Cond
}

// Run implements papi.Instance, partitioned by lane: each lane has its own
// acceptor, handler share, scanner share, job queue, and connection queue,
// and a scan request never leaves its lane. One lane is the N=1 case: the
// paper's daemon, one listener, all handlers and the whole scanner pool,
// where the files of every in-flight request scan in parallel.
//
// Each lane is built by its own lane-main thread (the bootstrap discipline
// cross-lane spawns require): the lane main creates the lane's queues and
// pools with in-lane spawns, then becomes the lane's acceptor. The main
// thread is lane 0's lane main.
func (s *Server) Run(t papi.T) {
	l, err := t.Listen(s.cfg.Port)
	if err != nil {
		return
	}
	lanes := t.Lanes()
	share := func(total, lane int) int {
		n := total / lanes
		if lane < total%lanes {
			n++
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	laneMain := func(lt papi.T, lane int) {
		lc := &laneCtx{
			lane:  lane,
			jobMu: lt.NewMutexLane(lane),
			jobCv: lt.NewCondLane(lane),
			cMu:   lt.NewMutexLane(lane),
			cCv:   lt.NewCondLane(lane),
		}
		for i := 0; i < share(s.cfg.Scanners, lane); i++ {
			lt.Spawn(fmt.Sprintf("lane%d-scanner%d", lane, i), func(wt papi.T) {
				s.scannerLoop(wt, lc)
			})
		}
		// Handler threads: one connection at a time each.
		for i := 0; i < share(s.cfg.Handlers, lane); i++ {
			lt.Spawn(fmt.Sprintf("lane%d-handler%d", lane, i), func(wt papi.T) {
				s.handlerLoop(wt, lc)
			})
		}
		s.acceptLoop(lt, l, lc)
	}
	for lane := 1; lane < lanes; lane++ {
		t.SpawnLane(lane, fmt.Sprintf("lane%d-main", lane), func(bt papi.T) {
			laneMain(bt, lane)
		})
	}
	laneMain(t, 0)
}

func (s *Server) scannerLoop(t papi.T, lc *laneCtx) {
	for !t.Killed() {
		lc.jobMu.Lock(t)
		for len(lc.jobs) == 0 {
			lc.jobCv.Wait(t, lc.jobMu)
		}
		job := lc.jobs[0]
		lc.jobs = lc.jobs[1:]
		lc.jobMu.Unlock(t)
		s.scanFile(t, job)
	}
}

func (s *Server) handlerLoop(t papi.T, lc *laneCtx) {
	for !t.Killed() {
		lc.cMu.Lock(t)
		for len(lc.connCh) == 0 {
			lc.cCv.Wait(t, lc.cMu)
		}
		c := lc.connCh[0]
		lc.connCh = lc.connCh[1:]
		lc.cMu.Unlock(t)
		s.serveConn(t, c, lc)
	}
}

func (s *Server) acceptLoop(t papi.T, l papi.Listener, lc *laneCtx) {
	for !t.Killed() {
		if !l.Poll(t, 50*time.Millisecond) {
			continue
		}
		c, err := l.Accept(t)
		if err != nil {
			return
		}
		lc.cMu.Lock(t)
		lc.connCh = append(lc.connCh, c)
		lc.cMu.Unlock(t)
		lc.cCv.Signal(t)
	}
}

func (s *Server) serveConn(t papi.T, c papi.Conn, lc *laneCtx) {
	defer c.Close(t)
	var acc []byte
	buf := make([]byte, 512)
	for {
		i := bytes.IndexByte(acc, '\n')
		for i < 0 {
			n, err := c.Recv(t, buf)
			if err != nil {
				return
			}
			acc = append(acc, buf[:n]...)
			i = bytes.IndexByte(acc, '\n')
		}
		line := strings.TrimSpace(string(acc[:i]))
		acc = acc[i+1:]
		parts := strings.SplitN(line, " ", 2)
		switch parts[0] {
		case "PING":
			c.Send(t, []byte("PONG\n"))
		case "VERSION":
			c.Send(t, []byte("ClamAV 0.98/crane\n"))
		case "SCAN", "CONTSCAN", "MULTISCAN":
			if len(parts) != 2 {
				c.Send(t, []byte("ERROR: missing path\n"))
				continue
			}
			s.scanTree(t, c, parts[1], lc)
		case "RELOAD":
			// Re-read the signature database from the container fs.
			n := s.reloadDB(t)
			c.Send(t, []byte(fmt.Sprintf("RELOADING %d signatures\n", n)))
		case "STATS":
			sc, inf := s.Totals()
			c.Send(t, []byte(fmt.Sprintf("POOLS: 1\nSCANNED: %d\nINFECTED: %d\nEND\n", sc, inf)))
		case "END":
			return
		default:
			c.Send(t, []byte("UNKNOWN COMMAND\n"))
		}
	}
}

// scanTree fans the files under root out to the scanner pool, waits for
// completion, and streams the report.
func (s *Server) scanTree(t papi.T, c papi.Conn, root string, lc *laneCtx) {
	files := s.fs.List(root)
	// The request and its scan jobs live entirely on this lane.
	res := &scanResults{pending: len(files),
		mu: t.NewMutexLane(lc.lane), cond: t.NewCondLane(lc.lane)}
	if len(files) == 0 {
		c.Send(t, []byte(root+": no files\nSCAN SUMMARY: scanned 0 infected 0\n"))
		return
	}
	lc.jobMu.Lock(t)
	for _, f := range files {
		lc.jobs = append(lc.jobs, scanJob{path: f, results: res})
	}
	lc.jobMu.Unlock(t)
	lc.jobCv.Broadcast(t)

	res.mu.Lock(t)
	for res.pending > 0 {
		res.cond.Wait(t, res.mu)
	}
	found := append([]string(nil), res.found...)
	scanned := res.scanned
	res.mu.Unlock(t)

	sort.Strings(found) // deterministic report order
	var out bytes.Buffer
	for _, f := range found {
		fmt.Fprintf(&out, "%s: Eicar-Test-Signature FOUND\n", f)
	}
	fmt.Fprintf(&out, "SCAN SUMMARY: scanned %d infected %d\n", scanned, len(found))
	c.Send(t, out.Bytes())

	s.stateMu.Lock()
	s.scanned += uint64(scanned)
	s.infected += uint64(len(found))
	s.stateMu.Unlock()
}

// reloadDB re-parses the on-disk virus database and returns the signature
// count (clamd's RELOAD command).
func (s *Server) reloadDB(t papi.T) int {
	db, ok := s.fs.Read("db/main.cvd")
	if !ok {
		return 0
	}
	t.Work(len(db)/1024 + 1)
	return bytes.Count(db, []byte("\n")) - 1
}

// scanFile matches one file against the signature database and deletes it
// if infected.
func (s *Server) scanFile(t papi.T, job scanJob) {
	data, ok := s.fs.Read(job.path)
	infected := false
	if ok {
		// Compute cost proportional to file size, like real signature
		// matching.
		t.Work(s.cfg.WorkPerKB * (len(data)/1024 + 1))
		if bytes.Contains(data, []byte(signature)) {
			infected = true
			s.fs.Remove(job.path) // delete malicious file
		}
	}
	job.results.mu.Lock(t)
	job.results.scanned++
	if infected {
		job.results.found = append(job.results.found, job.path)
	}
	job.results.pending--
	done := job.results.pending == 0
	job.results.mu.Unlock(t)
	if done {
		job.results.cond.Broadcast(t)
	}
}

var _ papi.Instance = (*Server)(nil)
