// Package mongoose reimplements the concurrency structure of the Mongoose
// embedded web server evaluated in §7: a compact single-listener design
// where the main thread accepts connections and hands each to a fixed pool
// of worker threads via per-worker mailboxes (unlike Apache's shared
// worklist), with one coarse mutex around request dispatch. It serves the
// same ApacheBench PHP workload, and takes the same two-line soft-barrier
// hint (Figure 15 reduces its overhead from 643% to 5.09%).
package mongoose

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
	// Workers is the worker-pool size (default 6).
	Workers int
	// UseHints enables the two-line soft-barrier hint.
	UseHints bool
	// HintGroup is the soft-barrier group size (0 means Workers).
	HintGroup int
	// ScriptChunks / ScriptChunkWork shape the scripting computation, as
	// in the Apache model.
	ScriptChunks    int
	ScriptChunkWork int
	// Port is the listening port (default 8081).
	Port int
	// WithDate adds a Date header read from T.Now: the logical clock under
	// DMT, the wall clock only in the ModeNondet baseline.
	WithDate bool
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{Workers: 6, ScriptChunks: 14, ScriptChunkWork: 240, Port: 8081, WithDate: true}
}

// Program packages the server for deployment.
func Program(cfg Config) papi.Program {
	if cfg.Port == 0 {
		cfg.Port = 8081
	}
	if cfg.Workers == 0 {
		cfg.Workers = 6
	}
	if cfg.ScriptChunks == 0 {
		cfg.ScriptChunks = 14
	}
	if cfg.ScriptChunkWork == 0 {
		cfg.ScriptChunkWork = 240
	}
	return papi.Program{
		Name:    "mongoose",
		Ports:   []int{cfg.Port},
		Install: Install,
		New: func(fs *cfs.FS) papi.Instance {
			return New(cfg, fs)
		},
		// Mongoose pins each connection to one worker, so requests on
		// different connections only conflict through document-root writes
		// (guarded by the cross-lane dispatch mutex): connections partition
		// cleanly across lanes with the default connID%lanes router.
		Conflict: &papi.ConflictMap{},
	}
}

// Install populates the document root.
func Install(fs *cfs.FS) {
	fs.Write("etc/mongoose.conf", []byte("document_root www\nnum_threads 6\n"))
	fs.Write("www/index.html", []byte("<html><body>mongoose</body></html>\n"))
	for i := 0; i < 6; i++ {
		fs.Write(fmt.Sprintf("www/app%d.php", i),
			[]byte(fmt.Sprintf("<?php app(%d); ?>\n", i)))
	}
}

// Server is one replica-local Mongoose-like instance.
type Server struct {
	cfg Config
	fs  *cfs.FS

	stateMu sync.Mutex //crane:nondet-ok guards counters for Snapshot, which the checkpoint layer drives at quiescent points outside the DMT schedule
	served  uint64
}

// New creates an instance bound to the replica filesystem.
func New(cfg Config, fs *cfs.FS) *Server {
	return &Server{cfg: cfg, fs: fs}
}

// Snapshot implements papi.Instance.
func (s *Server) Snapshot() ([]byte, error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(s.served)
	return buf.Bytes(), err
}

// Restore implements papi.Instance.
func (s *Server) Restore(b []byte) error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return gob.NewDecoder(bytes.NewReader(b)).Decode(&s.served)
}

// Served returns completed request count.
func (s *Server) Served() uint64 {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.served
}

// mailbox is one worker's connection queue.
type mailbox struct {
	mu    papi.Mutex
	cond  papi.Cond
	queue []papi.Conn
}

// Run implements papi.Instance, partitioned by lane: each lane gets its
// own acceptor, a share of the worker pool with per-worker mailboxes, a
// scripting-engine lock, and its own soft barrier. Lanes only meet at the
// cross-lane dispatch mutex, which several lanes take solely for
// document-root writes (PUT/DELETE). One lane is the N=1 case: the paper's
// server, whose one coarse mutex is both the dispatch and the engine lock.
//
// Each lane is built by its own lane-main thread (the bootstrap discipline
// cross-lane spawns require): the lane main creates the lane's mailboxes
// and worker pool with in-lane spawns, then becomes the lane's acceptor.
// The main thread is lane 0's lane main.
func (s *Server) Run(t papi.T) {
	l, err := t.Listen(s.cfg.Port)
	if err != nil {
		return
	}
	lanes := t.Lanes()
	dispatchMu := t.NewMutex() // coarse dispatch lock; cross-lane
	laneMain := func(lt papi.T, lane int) {
		workers := s.cfg.Workers / lanes
		if lane < s.cfg.Workers%lanes {
			workers++
		}
		if workers < 1 {
			workers = 1
		}
		engineMu := dispatchMu
		if lanes > 1 {
			engineMu = lt.NewMutexLane(lane)
		}
		var hint papi.Barrier
		if s.cfg.UseHints {
			group := s.cfg.HintGroup
			if group <= 0 {
				group = workers
			}
			hint = lt.SoftBarrier(fmt.Sprintf("script%d", lane), group, 60)
		}
		boxes := make([]*mailbox, workers)
		for i := range boxes {
			boxes[i] = &mailbox{mu: lt.NewMutexLane(lane), cond: lt.NewCondLane(lane)}
		}
		for i := 0; i < workers; i++ {
			box := boxes[i]
			lt.Spawn(fmt.Sprintf("lane%d-mg-worker%d", lane, i), func(wt papi.T) {
				s.workerLoop(wt, box, dispatchMu, engineMu, hint)
			})
		}
		s.acceptLoop(lt, l, boxes)
	}
	for lane := 1; lane < lanes; lane++ {
		t.SpawnLane(lane, fmt.Sprintf("lane%d-mg-main", lane), func(bt papi.T) {
			laneMain(bt, lane)
		})
	}
	laneMain(t, 0)
}

func (s *Server) workerLoop(t papi.T, box *mailbox, dispatchMu, engineMu papi.Mutex, hint papi.Barrier) {
	for !t.Killed() {
		box.mu.Lock(t)
		for len(box.queue) == 0 {
			box.cond.Wait(t, box.mu)
		}
		c := box.queue[0]
		box.queue = box.queue[1:]
		box.mu.Unlock(t)
		s.serveConn(t, c, dispatchMu, engineMu, hint)
	}
}

func (s *Server) acceptLoop(t papi.T, l papi.Listener, boxes []*mailbox) {
	next := 0
	for !t.Killed() {
		if !l.Poll(t, 50*time.Millisecond) {
			continue
		}
		c, err := l.Accept(t)
		if err != nil {
			return
		}
		box := boxes[next%len(boxes)]
		next++
		box.mu.Lock(t)
		box.queue = append(box.queue, c)
		box.mu.Unlock(t)
		box.cond.Signal(t)
	}
}

func (s *Server) serveConn(t papi.T, c papi.Conn, dispatchMu, engineMu papi.Mutex, hint papi.Barrier) {
	defer c.Close(t)
	r := httpkit.NewReader(t, c)
	for {
		req, err := r.Next()
		if err != nil {
			return
		}
		resp := s.handle(t, req, dispatchMu, engineMu, hint)
		if err := resp.Write(t, c, "crane-mongoose/6.x", s.cfg.WithDate); err != nil {
			return
		}
		s.stateMu.Lock()
		s.served++
		s.stateMu.Unlock()
		// HTTP/1.0: close after the response unless keep-alive requested.
		if !strings.EqualFold(req.Headers["connection"], "keep-alive") {
			return
		}
	}
}

func (s *Server) handle(t papi.T, req *httpkit.Request, dispatchMu, engineMu papi.Mutex, hint papi.Barrier) *httpkit.Response {
	path := strings.TrimPrefix(req.Path, "/")
	if path == "" {
		path = "index.html"
	}
	file := "www/" + path
	switch req.Method {
	case "GET":
		// With several lanes, GETs read the (internally synchronized)
		// filesystem without the cross-lane dispatch lock: reads on
		// different lanes commute. One lane keeps the paper's coarse lock
		// pair, which costs no merge there.
		if t.Lanes() == 1 {
			dispatchMu.Lock(t)
		}
		src, ok := s.fs.Read(file)
		if t.Lanes() == 1 {
			dispatchMu.Unlock(t)
		}
		if !ok {
			return &httpkit.Response{Status: 404, Body: []byte("404 Not Found\n")}
		}
		if strings.HasSuffix(file, ".php") {
			return &httpkit.Response{Status: 200, Body: s.script(t, file, src, engineMu, hint)}
		}
		return &httpkit.Response{Status: 200, Body: src}
	case "PUT":
		dispatchMu.Lock(t)
		s.fs.Write(file, req.Body)
		dispatchMu.Unlock(t)
		return &httpkit.Response{Status: 201, Body: []byte("Created\n")}
	case "DELETE":
		dispatchMu.Lock(t)
		existed := s.fs.Remove(file)
		dispatchMu.Unlock(t)
		if !existed {
			return &httpkit.Response{Status: 404, Body: []byte("404 Not Found\n")}
		}
		return &httpkit.Response{Status: 200, Body: []byte("Deleted\n")}
	default:
		return &httpkit.Response{Status: 405, Body: []byte("Method Not Allowed\n")}
	}
}

// script models the embedded scripting engine: chunked compute with brief
// engine-lock operations between chunks, deterministically seeded.
func (s *Server) script(t papi.T, file string, src []byte, engineMu papi.Mutex, hint papi.Barrier) []byte {
	if hint != nil {
		hint.Arrive(t)
	}
	seed := papi.DetRand(uint64(len(src)) * 2654435761)
	var out bytes.Buffer
	fmt.Fprintf(&out, "<!-- mongoose script %s -->\n", file)
	for i := 0; i < s.cfg.ScriptChunks; i++ {
		engineMu.Lock(t)
		engineMu.Unlock(t)
		t.Work(1 + papi.DetRandN(seed+uint64(i), 2*s.cfg.ScriptChunkWork))
		fmt.Fprintf(&out, "<li>%x</li>\n", papi.DetRand(seed^uint64(i)))
	}
	return out.Bytes()
}

var _ papi.Instance = (*Server)(nil)
