package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Health is the /healthz payload: the liveness/role facts an operator (or
// load balancer) needs to route around a sick replica. The consensus facts
// come one row per Paxos group (AddGroup), summarized on top: Primary only
// when the replica leads every group (one stranded group refuses its share
// of the connections), WALLag the worst group's, and View, ViewPrimary,
// CommitIndex and WALTail group 0's.
type Health struct {
	Replica     int           `json:"replica"`
	Mode        string        `json:"mode"`
	Primary     bool          `json:"primary"`
	View        uint64        `json:"view"`
	ViewPrimary int           `json:"view_primary"`
	CommitIndex uint64        `json:"commit_index"`
	WALTail     uint64        `json:"wal_tail"`
	WALLag      uint64        `json:"wal_lag"` // commit index minus WAL tail, maximum over groups
	OpenConns   int64         `json:"open_conns"`
	SeqPending  int           `json:"seq_pending"`
	Groups      []groupHealth `json:"groups"`
}

// groupHealth is one Paxos group's row of the /healthz payload.
type groupHealth struct {
	Primary     bool   `json:"primary"`
	View        uint64 `json:"view"`
	ViewPrimary int    `json:"view_primary"`
	CommitIndex uint64 `json:"commit_index"`
	WALTail     uint64 `json:"wal_tail"`
	WALLag      uint64 `json:"wal_lag"`
}

// AddGroup appends the next group's row (call in group order) and folds it
// into the summary fields. hasWAL is false for a group without a log, which
// reports no tail and no lag.
func (h *Health) AddGroup(primary bool, view uint64, viewPrimary int, commitIndex uint64, hasWAL bool, walTail uint64) {
	g := groupHealth{Primary: primary, View: view, ViewPrimary: viewPrimary, CommitIndex: commitIndex}
	if hasWAL {
		g.WALTail = walTail
		if commitIndex > walTail {
			g.WALLag = commitIndex - walTail
		}
	}
	if len(h.Groups) == 0 {
		h.Primary = primary
		h.View, h.ViewPrimary, h.CommitIndex, h.WALTail = g.View, g.ViewPrimary, g.CommitIndex, g.WALTail
	}
	h.Primary = h.Primary && primary
	h.WALLag = max(h.WALLag, g.WALLag)
	h.Groups = append(h.Groups, g)
}

// Server is one replica's scrape endpoint: /metrics (Prometheus text),
// /healthz (JSON), /debug/pprof (the standard profiles). It binds its own
// listener and mux — never the process-global DefaultServeMux — so every
// replica in a test process can serve independently.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer serves reg and health on addr ("host:0" picks a free port).
// health may be nil (the endpoint then returns 404); tracer may be nil
// (/trace returns an empty body); journal may be nil (/journal returns
// 404) — when set it dumps the replica's flight-recorder journal as JSONL
// for offline divergence localization (crane-inspect).
func StartServer(addr string, reg *Registry, health func() Health, tracer *Tracer, journal func(io.Writer) error) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if health == nil {
			http.NotFound(w, nil)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(health())
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		tracer.WriteJSONL(w)
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, _ *http.Request) {
		if journal == nil {
			http.NotFound(w, nil)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		journal(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
