// Package httpd reimplements the concurrency structure of the Apache HTTP
// server that the paper evaluates (its running example, Fig. 2): a
// listener thread poll()/accept()s client connections onto a worklist, and
// a pool of worker threads dequeues connections, processes requests under
// a mutex, and responds.
//
// PHP page generation (the ApacheBench workload: "a PHP page, which takes
// about 70 ms ... to generate") is modelled as multi-chunk computation with
// brief shared-allocator lock operations between chunks — the pattern that
// makes Parrot's default round-robin schedules accumulate token-parking
// stalls when workers start their interpretations staggered, and that the
// two-line soft-barrier hint fixes (§7.4, Figure 15): one hint line at
// main() to initialize the barrier, one before the interpretation starts
// to line up the parallel computations.
package httpd

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"sync"
	"time"

	"crane/internal/apps/httpkit"
	"crane/internal/cfs"
	"crane/internal/papi"
)

// Config shapes the server.
type Config struct {
	// Workers is the worker-pool size (the workloads drive 8–12 threads).
	Workers int
	// UseHints enables the two-line soft-barrier performance hint.
	UseHints bool
	// HintGroup is the soft-barrier group size (0 means Workers). The
	// barrier is soft, so a smaller group than the worker pool simply
	// lines up fewer computations per release.
	HintGroup int
	// PHPChunks and PHPChunkWork shape the interpreter computation: each
	// request runs PHPChunks compute chunks with a deterministic
	// pseudo-random size in [1, 2*PHPChunkWork), separated by allocator
	// lock/unlock pairs.
	PHPChunks    int
	PHPChunkWork int
	// CacheEnabled turns on the internal page cache (the paper's example
	// of "read" requests that still mutate internal state, §8).
	CacheEnabled bool
	// Port is the listening port (default 8080).
	Port int
	// WithDate adds a Date header read from T.Now. Under DMT that is the
	// logical clock, so replicas agree on it; only the ModeNondet baseline
	// reads the wall clock, and consistency runs against it normalise the
	// header away (httpkit.DateHeaderPattern).
	WithDate bool
}

// DefaultConfig mirrors the paper's peak-performance setup.
func DefaultConfig() Config {
	return Config{
		Workers:      8,
		UseHints:     false,
		PHPChunks:    16,
		PHPChunkWork: 260,
		CacheEnabled: true,
		Port:         8080,
		WithDate:     true,
	}
}

// Program packages the server for deployment.
func Program(cfg Config) papi.Program {
	if cfg.Port == 0 {
		cfg.Port = 8080
	}
	if cfg.Workers == 0 {
		cfg.Workers = 8
	}
	if cfg.PHPChunks == 0 {
		cfg.PHPChunks = 16
	}
	if cfg.PHPChunkWork == 0 {
		cfg.PHPChunkWork = 260
	}
	return papi.Program{
		Name:    "httpd",
		Ports:   []int{cfg.Port},
		Install: Install,
		New: func(fs *cfs.FS) papi.Instance {
			return New(cfg, fs)
		},
		// Static GETs on disjoint paths commute (the cache is the one piece
		// of shared state, and it is guarded by a cross-lane mutex), so
		// connections can be partitioned round-robin across lanes, which is
		// what Program.ConnClass (connID % lanes) does.
		Conflict: &papi.ConflictMap{},
	}
}

// Install populates the document root and server configuration in the
// container image.
func Install(fs *cfs.FS) {
	fs.Write("etc/httpd.conf", []byte("DocumentRoot www\nWorkers 8\nKeepAlive off\n"))
	fs.Write("www/index.html", []byte("<html><body>It works!</body></html>\n"))
	fs.Write("www/status.php", []byte("<?php echo server_status(); ?>\n"))
	for i := 0; i < 8; i++ {
		fs.Write(fmt.Sprintf("www/page%d.php", i),
			[]byte(fmt.Sprintf("<?php echo render_page(%d); ?>\n", i)))
	}
}

// Server is one replica-local Apache-like instance.
type Server struct {
	cfg Config
	fs  *cfs.FS

	// stateMu guards cache and counters for Snapshot; the schedule-level
	// exclusion is the papi mutex created in Run.
	stateMu sync.Mutex //crane:nondet-ok Snapshot runs off-schedule at quiescent checkpoints; schedule-level exclusion is the papi mutex in Run
	cache   map[string][]byte
	served  uint64
}

// New creates an instance bound to the replica filesystem.
func New(cfg Config, fs *cfs.FS) *Server {
	return &Server{cfg: cfg, fs: fs, cache: make(map[string][]byte)}
}

type snapshotState struct {
	Cache  map[string][]byte
	Served uint64
}

// Snapshot implements papi.Instance.
func (s *Server) Snapshot() ([]byte, error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snapshotState{Cache: s.cache, Served: s.served})
	return buf.Bytes(), err
}

// Restore implements papi.Instance.
func (s *Server) Restore(b []byte) error {
	var st snapshotState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if st.Cache != nil {
		s.cache = st.Cache
	}
	s.served = st.Served
	return nil
}

// Served returns the number of requests completed (test observability).
func (s *Server) Served() uint64 {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.served
}

// laneState is one lane's private accept/dispatch machinery: its own
// worklist, worklist lock and cond, allocator lock, and soft barrier. Only
// pageMu (cache and filesystem mutations) is shared across lanes.
type laneState struct {
	worklist []papi.Conn
	wlMu     papi.Mutex
	wlCond   papi.Cond
	allocMu  papi.Mutex
	hint     papi.Barrier
}

// Run implements papi.Instance: the paper's Fig. 2 structure, partitioned
// by lane. Connections are routed to lanes by the conflict map
// (round-robin on connection id), and each lane runs its own copy of
// Fig. 2 — one acceptor plus a share of the worker pool, all lane-bound.
// Lanes only meet at pageMu, the cross-lane mutex guarding the page cache
// and document-root writes. One lane is the N=1 case: the paper's server,
// one acceptor and the whole pool.
//
// Each lane is built by its own lane-main thread (the bootstrap discipline
// cross-lane spawns require): the lane main creates the lane's sync
// objects and worker pool with in-lane spawns — all scheduled operations
// of the lane itself, hence replica-deterministic — then becomes the
// lane's acceptor. Lane L's acceptor only ever sees lane L's CONNECTs
// (the gate routes them by the conflict map). The main thread is lane 0's
// lane main.
func (s *Server) Run(t papi.T) {
	l, err := t.Listen(s.cfg.Port)
	if err != nil {
		return
	}
	lanes := t.Lanes()
	pageMu := t.NewMutex() // cross-lane: request-processing lock (Fig. 2 line 19)
	laneMain := func(lt papi.T, lane int) {
		ls := &laneState{
			wlMu:    lt.NewMutexLane(lane),
			wlCond:  lt.NewCondLane(lane),
			allocMu: lt.NewMutexLane(lane), // interpreter/allocator lock
		}
		// Soft-barrier hint line 1: initialize at main() (§7.4).
		if s.cfg.UseHints {
			group := s.cfg.HintGroup
			if group <= 0 {
				group = s.workersFor(lane, lanes)
			}
			// Per-lane barrier id: a soft barrier binds to the lane of its
			// first arrival, so each lane lines up its own interpretations.
			ls.hint = lt.SoftBarrier(fmt.Sprintf("php%d", lane), group, 60)
		}
		for i := 0; i < s.workersFor(lane, lanes); i++ {
			lt.Spawn(fmt.Sprintf("lane%d-worker%d", lane, i), func(wt papi.T) {
				s.worker(wt, &ls.worklist, ls.wlMu, ls.wlCond, pageMu, ls.allocMu, ls.hint)
			})
		}
		// Listener thread body runs on the lane main (Fig. 2 runs it on a
		// dedicated thread; either way it is one poller per lane).
		s.acceptLoop(lt, l, ls)
	}
	for lane := 1; lane < lanes; lane++ {
		t.SpawnLane(lane, fmt.Sprintf("lane%d-main", lane), func(bt papi.T) {
			laneMain(bt, lane)
		})
	}
	laneMain(t, 0)
}

// workersFor splits cfg.Workers across lanes, remainder to the low lanes,
// at least one worker per lane.
func (s *Server) workersFor(lane, lanes int) int {
	n := s.cfg.Workers / lanes
	if lane < s.cfg.Workers%lanes {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (s *Server) acceptLoop(t papi.T, l papi.Listener, ls *laneState) {
	for !t.Killed() {
		if !l.Poll(t, 50*time.Millisecond) {
			continue
		}
		c, err := l.Accept(t)
		if err != nil {
			return
		}
		ls.wlMu.Lock(t)
		ls.worklist = append(ls.worklist, c)
		ls.wlMu.Unlock(t)
		ls.wlCond.Signal(t)
	}
}

func (s *Server) worker(t papi.T, worklist *[]papi.Conn, wlMu papi.Mutex,
	wlCond papi.Cond, pageMu, allocMu papi.Mutex, hint papi.Barrier) {
	for !t.Killed() {
		wlMu.Lock(t)
		for len(*worklist) == 0 {
			wlCond.Wait(t, wlMu)
		}
		c := (*worklist)[0]
		*worklist = (*worklist)[1:]
		wlMu.Unlock(t)
		s.serveConn(t, c, pageMu, allocMu, hint)
	}
}

func (s *Server) serveConn(t papi.T, c papi.Conn, pageMu, allocMu papi.Mutex, hint papi.Barrier) {
	defer c.Close(t)
	r := httpkit.NewReader(t, c)
	for {
		req, err := r.Next()
		if err != nil {
			return
		}
		resp := s.handle(t, req, pageMu, allocMu, hint)
		if err := resp.Write(t, c, "crane-httpd/2.4", s.cfg.WithDate); err != nil {
			return
		}
		s.stateMu.Lock()
		s.served++
		s.stateMu.Unlock()
		// HTTP/1.0 semantics: close after the response unless the client
		// asked for keep-alive. (Also keeps workers from being pinned to
		// drained connections — see DESIGN.md's liveness note.)
		if !strings.EqualFold(req.Headers["connection"], "keep-alive") {
			return
		}
	}
}

func (s *Server) handle(t papi.T, req *httpkit.Request, pageMu, allocMu papi.Mutex, hint papi.Barrier) *httpkit.Response {
	path := strings.TrimPrefix(req.Path, "/")
	if path == "" {
		path = "index.html"
	}
	file := "www/" + path
	switch req.Method {
	case "HEAD":
		if !s.fs.Exists(file) {
			return &httpkit.Response{Status: 404}
		}
		return &httpkit.Response{Status: 200,
			Headers: []string{fmt.Sprintf("X-Content-Size: %d", s.fs.Size(file))}}
	case "GET":
		// Internal cache: a "read" that mutates execution state (§8's
		// argument against blind read-only optimization).
		if s.cfg.CacheEnabled {
			pageMu.Lock(t)
			s.stateMu.Lock()
			cached, ok := s.cache[file]
			s.stateMu.Unlock()
			pageMu.Unlock(t)
			if ok {
				return &httpkit.Response{Status: 200, Body: cached,
					Headers: []string{"X-Cache: HIT"}}
			}
		}
		src, ok := s.fs.Read(file)
		if !ok {
			return &httpkit.Response{Status: 404, Body: []byte("404 Not Found\n")}
		}
		var body []byte
		if strings.HasSuffix(file, ".php") {
			body = s.interpretPHP(t, file, src, allocMu, hint)
		} else {
			body = src
		}
		// With the cache off there is nothing shared to publish; skipping
		// the (cross-lane) pageMu lets disjoint-path GETs on different
		// lanes complete without ever synchronizing. One lane keeps the
		// paper's lock pair (Fig. 2 line 19), which costs no merge there.
		if s.cfg.CacheEnabled || t.Lanes() == 1 {
			pageMu.Lock(t)
			if s.cfg.CacheEnabled {
				s.stateMu.Lock()
				s.cache[file] = body
				s.stateMu.Unlock()
			}
			pageMu.Unlock(t)
		}
		return &httpkit.Response{Status: 200, Body: body}
	case "PUT":
		pageMu.Lock(t)
		s.fs.Write(file, req.Body)
		s.stateMu.Lock()
		delete(s.cache, file)
		s.stateMu.Unlock()
		pageMu.Unlock(t)
		return &httpkit.Response{Status: 201, Body: []byte("Created\n")}
	case "DELETE":
		pageMu.Lock(t)
		existed := s.fs.Remove(file)
		s.stateMu.Lock()
		delete(s.cache, file)
		s.stateMu.Unlock()
		pageMu.Unlock(t)
		if !existed {
			return &httpkit.Response{Status: 404, Body: []byte("404 Not Found\n")}
		}
		return &httpkit.Response{Status: 200, Body: []byte("Deleted\n")}
	default:
		return &httpkit.Response{Status: 405, Body: []byte("Method Not Allowed\n")}
	}
}

// interpretPHP models the PHP interpreter: PHPChunks compute chunks with
// deterministic pseudo-random sizes (seeded by the page content, so every
// replica computes identically), separated by brief shared-allocator lock
// operations. Hint line 2: line up the parallel interpretations (§7.4).
func (s *Server) interpretPHP(t papi.T, file string, src []byte, allocMu papi.Mutex, hint papi.Barrier) []byte {
	if hint != nil {
		hint.Arrive(t)
	}
	seed := papi.DetRand(uint64(len(src)) ^ hashString(file))
	var out bytes.Buffer
	fmt.Fprintf(&out, "<html><body><!-- interpreted %s -->\n", file)
	for i := 0; i < s.cfg.PHPChunks; i++ {
		// Allocator bookkeeping between chunks: brief lock hold.
		allocMu.Lock(t)
		allocMu.Unlock(t)
		chunk := 1 + papi.DetRandN(seed+uint64(i), 2*s.cfg.PHPChunkWork)
		t.Work(chunk)
		fmt.Fprintf(&out, "<p>chunk %d: %x</p>\n", i, papi.DetRand(seed+uint64(i)))
	}
	out.WriteString("</body></html>\n")
	return out.Bytes()
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

var _ papi.Instance = (*Server)(nil)
