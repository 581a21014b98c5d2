// Package mysqld reimplements the concurrency structure of the MySQL
// server evaluated in §7: thread-per-connection workers over a listener,
// a catalog lock, and *fine-grained per-table mutexes and reader-writer
// locks* — the paper attributes MySQL's highest CRANE overhead (Figure 14)
// to exactly this frequent fine-grained locking. The SQL dialect covers
// what the SysBench-style workload issues: CREATE TABLE, INSERT, SELECT
// (point and range), UPDATE, and DELETE.
//
// Tables persist to per-table files in the container filesystem; SysBench
// populates a large database, which is why MySQL's filesystem checkpoint
// dwarfs the others in Table 2.
package mysqld

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crane/internal/cfs"
	"crane/internal/papi"
)

// Config shapes the server.
type Config struct {
	// Workers is the connection-worker pool size (default 10).
	Workers int
	// WorkPerRow is compute per row touched (index scan, comparison).
	WorkPerRow int
	// WorkPerQuery is fixed compute per statement (parse, plan, session
	// bookkeeping). Default 200.
	WorkPerQuery int
	// Port is the listening port (default 3306).
	Port int
	// Persist mirrors committed writes into per-table files.
	Persist bool
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{Workers: 10, WorkPerRow: 3, WorkPerQuery: 200, Port: 3306, Persist: true}
}

// Program packages the server for deployment.
func Program(cfg Config) papi.Program {
	if cfg.Port == 0 {
		cfg.Port = 3306
	}
	if cfg.Workers == 0 {
		cfg.Workers = 10
	}
	if cfg.WorkPerRow == 0 {
		cfg.WorkPerRow = 3
	}
	if cfg.WorkPerQuery == 0 {
		cfg.WorkPerQuery = 200
	}
	return papi.Program{
		Name:    "mysqld",
		Ports:   []int{cfg.Port},
		Install: Install,
		New: func(fs *cfs.FS) papi.Instance {
			return New(cfg, fs)
		},
		// Sessions conflict only through tables; the SysBench-style clients
		// pin each connection to one table, so routing connections
		// round-robin across lanes approximates a per-table partition. The
		// catalog and per-table locks stay cross-lane (unbound), keeping
		// cross-partition statements correct — just slower, as in the paper.
		// The SysBench working set is one shared table whose reader-writer
		// lock every session crosses lanes for, so lanes beyond two only
		// multiply the bubble-paced merge waits each cross-lane acquire
		// pays (the 8-lane regression in BENCH_lanes.json); MaxUseful caps
		// a deployment's request at the measured sweet spot.
		Conflict: &papi.ConflictMap{MaxUseful: 2},
	}
}

// Install writes server configuration into the container image.
func Install(fs *cfs.FS) {
	fs.Write("etc/my.cnf", []byte("[mysqld]\ndatadir=data\nmax_connections=64\n"))
	fs.Write("data/.keep", []byte(""))
}

// table is one in-memory table with its lock discipline.
type table struct {
	lock papi.RWMutex // per-table reader-writer lock
	meta papi.Mutex   // per-table metadata mutex (stats, autoinc)

	Cols    []string
	Rows    [][]string
	Index   map[string][]int // first column value -> row positions
	AutoInc int
}

// Server is one replica-local mysqld instance.
type Server struct {
	cfg Config
	fs  *cfs.FS

	stateMu sync.Mutex //crane:nondet-ok guards Go map internals under per-table papi locks; Snapshot runs off-schedule so this cannot be a papi.Mutex
	tables  map[string]*table
	queries uint64
	// restored holds snapshot table state until Run can rebuild lock
	// objects for it (locks are runtime-bound, not serializable).
	restored map[string]tableState
}

// New creates an instance bound to the replica filesystem.
func New(cfg Config, fs *cfs.FS) *Server {
	return &Server{cfg: cfg, fs: fs, tables: make(map[string]*table)}
}

type tableState struct {
	Cols    []string
	Rows    [][]string
	AutoInc int
}

type snapState struct {
	Tables  map[string]tableState
	Queries uint64
}

// Snapshot implements papi.Instance.
func (s *Server) Snapshot() ([]byte, error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	st := snapState{Tables: make(map[string]tableState, len(s.tables)), Queries: s.queries}
	for name, t := range s.tables {
		st.Tables[name] = tableState{Cols: t.Cols, Rows: t.Rows, AutoInc: t.AutoInc}
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(st)
	return buf.Bytes(), err
}

// Restore implements papi.Instance. Locks are rebuilt lazily in Run's
// environment; restored tables get fresh lock objects on first use.
func (s *Server) Restore(b []byte) error {
	var st snapState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return err
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	s.queries = st.Queries
	s.restored = st.Tables
	return nil
}

// Queries returns the processed-statement counter.
func (s *Server) Queries() uint64 {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.queries
}

// TableRows returns the row count of a table (test observability).
func (s *Server) TableRows(name string) int {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if t, ok := s.tables[name]; ok {
		return len(t.Rows)
	}
	return 0
}

// laneQueue is one lane's private connection queue.
type laneQueue struct {
	conns []papi.Conn
	cMu   papi.Mutex
	cCv   papi.Cond
}

// Run implements papi.Instance, partitioned by lane: each lane runs its
// own acceptor and a share of the worker pool over a lane-private
// connection queue. Sessions are the same on every lane — table access
// synchronizes through the catalog and per-table locks, which are created
// unbound and so become cross-lane locks when there are several lanes:
// statements that cross a lane's partition stay correct, and pay the
// cross-lane cost the paper attributes to MySQL's fine-grained locking.
// One lane is the N=1 case: the paper's server, one acceptor and the whole
// pool.
//
// Each lane is built by its own lane-main thread (the bootstrap discipline
// cross-lane spawns require): the lane main creates the lane's queue and
// worker pool with in-lane spawns, then becomes the lane's acceptor. The
// main thread is lane 0's lane main.
func (s *Server) Run(t papi.T) {
	// Materialize restored tables with fresh lock objects.
	s.stateMu.Lock()
	for name, ts := range s.restored {
		tb := &table{lock: t.NewRWMutex(), meta: t.NewMutex(),
			Cols: ts.Cols, Rows: ts.Rows, AutoInc: ts.AutoInc}
		tb.rebuildIndex()
		s.tables[name] = tb
	}
	s.restored = nil
	s.stateMu.Unlock()

	l, err := t.Listen(s.cfg.Port)
	if err != nil {
		return
	}
	lanes := t.Lanes()
	catalogMu := t.NewMutex()
	laneMain := func(lt papi.T, lane int) {
		workers := s.cfg.Workers / lanes
		if lane < s.cfg.Workers%lanes {
			workers++
		}
		if workers < 1 {
			workers = 1
		}
		q := &laneQueue{cMu: lt.NewMutexLane(lane), cCv: lt.NewCondLane(lane)}
		for i := 0; i < workers; i++ {
			lt.Spawn(fmt.Sprintf("lane%d-sql-worker%d", lane, i), func(wt papi.T) {
				for !wt.Killed() {
					q.cMu.Lock(wt)
					for len(q.conns) == 0 {
						q.cCv.Wait(wt, q.cMu)
					}
					c := q.conns[0]
					q.conns = q.conns[1:]
					q.cMu.Unlock(wt)
					s.session(wt, c, catalogMu)
				}
			})
		}
		s.acceptLoop(lt, l, q)
	}
	for lane := 1; lane < lanes; lane++ {
		t.SpawnLane(lane, fmt.Sprintf("lane%d-sql-main", lane), func(bt papi.T) {
			laneMain(bt, lane)
		})
	}
	laneMain(t, 0)
}

func (s *Server) acceptLoop(t papi.T, l papi.Listener, q *laneQueue) {
	for !t.Killed() {
		if !l.Poll(t, 50*time.Millisecond) {
			continue
		}
		c, err := l.Accept(t)
		if err != nil {
			return
		}
		q.cMu.Lock(t)
		q.conns = append(q.conns, c)
		q.cMu.Unlock(t)
		q.cCv.Signal(t)
	}
}

func (t *table) rebuildIndex() {
	t.Index = make(map[string][]int, len(t.Rows))
	for i, row := range t.Rows {
		if len(row) > 0 {
			t.Index[row[0]] = append(t.Index[row[0]], i)
		}
	}
}

// session serves one client connection, one statement per line.
func (s *Server) session(t papi.T, c papi.Conn, catalogMu papi.Mutex) {
	defer c.Close(t)
	var acc []byte
	buf := make([]byte, 2048)
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
		stmt := strings.TrimSpace(string(acc[:i]))
		acc = acc[i+1:]
		if stmt == "" {
			continue
		}
		if strings.EqualFold(stmt, "QUIT") {
			return
		}
		t.Work(s.cfg.WorkPerQuery)
		resp := s.exec(t, stmt, catalogMu)
		s.stateMu.Lock()
		s.queries++
		s.stateMu.Unlock()
		if _, err := c.Send(t, []byte(resp)); err != nil {
			return
		}
	}
}

// exec parses and executes one SQL statement.
func (s *Server) exec(t papi.T, stmt string, catalogMu papi.Mutex) string {
	toks := tokenize(stmt)
	if len(toks) == 0 {
		return "ERR empty\n"
	}
	switch strings.ToUpper(toks[0]) {
	case "CREATE":
		return s.execCreate(t, toks, catalogMu)
	case "INSERT":
		return s.execInsert(t, toks, catalogMu)
	case "SELECT":
		return s.execSelect(t, toks, catalogMu)
	case "UPDATE":
		return s.execUpdate(t, toks, catalogMu)
	case "DELETE":
		return s.execDelete(t, toks, catalogMu)
	case "BEGIN", "COMMIT":
		return "OK 0\n"
	default:
		return "ERR unknown statement\n"
	}
}

// tokenize splits on spaces, commas and parens, keeping quoted strings.
func tokenize(s string) []string {
	var toks []string
	var cur strings.Builder
	inStr := false
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case inStr:
			if ch == '\'' {
				inStr = false
				flush()
			} else {
				cur.WriteByte(ch)
			}
		case ch == '\'':
			inStr = true
		case ch == ' ' || ch == '\t' || ch == ',' || ch == '(' || ch == ')' || ch == ';':
			flush()
		case ch == '=' || ch == '<' || ch == '>':
			flush()
			toks = append(toks, string(ch))
		default:
			cur.WriteByte(ch)
		}
	}
	flush()
	return toks
}

// getTable looks a table up under the catalog lock, creating lock objects
// if it was restored without them.
func (s *Server) getTable(t papi.T, name string, catalogMu papi.Mutex) *table {
	catalogMu.Lock(t)
	defer catalogMu.Unlock(t)
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.tables[strings.ToLower(name)]
}

func (s *Server) execCreate(t papi.T, toks []string, catalogMu papi.Mutex) string {
	// CREATE TABLE name col1 col2 ...
	if len(toks) < 4 || !strings.EqualFold(toks[1], "TABLE") {
		return "ERR syntax: CREATE TABLE name (cols)\n"
	}
	name := strings.ToLower(toks[2])
	cols := toks[3:]
	catalogMu.Lock(t)
	s.stateMu.Lock()
	if _, exists := s.tables[name]; exists {
		s.stateMu.Unlock()
		catalogMu.Unlock(t)
		return "ERR table exists\n"
	}
	s.tables[name] = &table{
		lock: t.NewRWMutex(), meta: t.NewMutex(),
		Cols: cols, Index: make(map[string][]int),
	}
	s.stateMu.Unlock()
	catalogMu.Unlock(t)
	if s.cfg.Persist {
		s.fs.Write("data/"+name+".frm", []byte(strings.Join(cols, ",")+"\n"))
		s.fs.Write("data/"+name+".ibd", nil)
	}
	return "OK 0\n"
}

func (s *Server) execInsert(t papi.T, toks []string, catalogMu papi.Mutex) string {
	// INSERT INTO name VALUES v1 v2 ...
	if len(toks) < 5 || !strings.EqualFold(toks[1], "INTO") || !strings.EqualFold(toks[3], "VALUES") {
		return "ERR syntax: INSERT INTO t VALUES (...)\n"
	}
	name := strings.ToLower(toks[2])
	tb := s.getTable(t, name, catalogMu)
	if tb == nil {
		return "ERR no such table\n"
	}
	vals := toks[4:]
	tb.lock.Lock(t)
	if len(vals) != len(tb.Cols) {
		tb.lock.Unlock(t)
		return fmt.Sprintf("ERR want %d values\n", len(tb.Cols))
	}
	tb.meta.Lock(t)
	tb.AutoInc++
	tb.meta.Unlock(t)
	row := append([]string(nil), vals...)
	s.stateMu.Lock()
	tb.Rows = append(tb.Rows, row)
	tb.Index[row[0]] = append(tb.Index[row[0]], len(tb.Rows)-1)
	s.stateMu.Unlock()
	t.Work(s.cfg.WorkPerRow)
	tb.lock.Unlock(t)
	if s.cfg.Persist {
		s.fs.Append("data/"+name+".ibd", []byte(strings.Join(vals, "|")+"\n"))
	}
	return "OK 1\n"
}

// whereClause is a parsed WHERE restriction.
type whereClause struct {
	col string
	op  string // "=", "<", ">", "between"
	lo  string
	hi  string
}

func parseWhere(toks []string) (*whereClause, error) {
	// ... WHERE col = v | col < v | col > v | col BETWEEN a AND b
	for i := 0; i < len(toks); i++ {
		if strings.EqualFold(toks[i], "WHERE") {
			rest := toks[i+1:]
			if len(rest) >= 3 && (rest[1] == "=" || rest[1] == "<" || rest[1] == ">") {
				return &whereClause{col: strings.ToLower(rest[0]), op: rest[1], lo: rest[2]}, nil
			}
			if len(rest) >= 5 && strings.EqualFold(rest[1], "BETWEEN") && strings.EqualFold(rest[3], "AND") {
				return &whereClause{col: strings.ToLower(rest[0]), op: "between", lo: rest[2], hi: rest[4]}, nil
			}
			return nil, fmt.Errorf("bad WHERE")
		}
	}
	return nil, nil
}

func (w *whereClause) matches(cols []string, row []string) bool {
	if w == nil {
		return true
	}
	ci := -1
	for i, c := range cols {
		if strings.ToLower(c) == w.col {
			ci = i
			break
		}
	}
	if ci < 0 || ci >= len(row) {
		return false
	}
	v := row[ci]
	switch w.op {
	case "=":
		return v == w.lo
	case "<":
		return numLess(v, w.lo)
	case ">":
		return numLess(w.lo, v)
	case "between":
		return !numLess(v, w.lo) && !numLess(w.hi, v)
	}
	return false
}

// numLess compares numerically when both parse, else lexically.
func numLess(a, b string) bool {
	na, ea := strconv.Atoi(a)
	nb, eb := strconv.Atoi(b)
	if ea == nil && eb == nil {
		return na < nb
	}
	return a < b
}

// selectOpts are the SELECT modifiers the SysBench-style dialect supports.
type selectOpts struct {
	orderBy string
	desc    bool
	limit   int // -1: none
	count   bool
}

// parseSelectOpts extracts ORDER BY col [DESC] and LIMIT n.
func parseSelectOpts(toks []string, proj []string) selectOpts {
	o := selectOpts{limit: -1}
	if len(proj) == 1 && strings.EqualFold(proj[0], "COUNT") {
		o.count = true
	}
	for i := 0; i < len(toks); i++ {
		if strings.EqualFold(toks[i], "ORDER") && i+2 < len(toks) && strings.EqualFold(toks[i+1], "BY") {
			o.orderBy = strings.ToLower(toks[i+2])
			if i+3 < len(toks) && strings.EqualFold(toks[i+3], "DESC") {
				o.desc = true
			}
		}
		if strings.EqualFold(toks[i], "LIMIT") && i+1 < len(toks) {
			if n, err := strconv.Atoi(toks[i+1]); err == nil && n >= 0 {
				o.limit = n
			}
		}
	}
	return o
}

func (s *Server) execSelect(t papi.T, toks []string, catalogMu papi.Mutex) string {
	// SELECT cols|*|COUNT FROM t [WHERE ...] [ORDER BY col [DESC]] [LIMIT n]
	fromIdx := -1
	for i, tk := range toks {
		if strings.EqualFold(tk, "FROM") {
			fromIdx = i
			break
		}
	}
	if fromIdx < 0 || fromIdx+1 >= len(toks) {
		return "ERR syntax: SELECT cols FROM t\n"
	}
	name := strings.ToLower(toks[fromIdx+1])
	tb := s.getTable(t, name, catalogMu)
	if tb == nil {
		return "ERR no such table\n"
	}
	where, err := parseWhere(toks[fromIdx:])
	if err != nil {
		return "ERR bad WHERE\n"
	}
	proj := toks[1:fromIdx]
	star := len(proj) == 1 && proj[0] == "*"
	opts := parseSelectOpts(toks[fromIdx:], proj)

	tb.lock.RLock(t)
	s.stateMu.Lock()
	// Point lookups on the first column use the index.
	var candidates []int
	if where != nil && where.op == "=" && len(tb.Cols) > 0 &&
		strings.ToLower(tb.Cols[0]) == where.col {
		candidates = tb.Index[where.lo]
	} else {
		candidates = make([]int, len(tb.Rows))
		for i := range tb.Rows {
			candidates[i] = i
		}
	}
	// Materialize matches, then apply ORDER BY / LIMIT.
	var matched [][]string
	for _, ri := range candidates {
		row := tb.Rows[ri]
		if where.matches(tb.Cols, row) {
			matched = append(matched, row)
		}
	}
	if opts.orderBy != "" {
		oc := -1
		for ci, cname := range tb.Cols {
			if strings.ToLower(cname) == opts.orderBy {
				oc = ci
				break
			}
		}
		if oc >= 0 {
			sort.SliceStable(matched, func(i, j int) bool {
				less := numLess(matched[i][oc], matched[j][oc])
				if opts.desc {
					return !less && matched[i][oc] != matched[j][oc]
				}
				return less
			})
		}
	}
	if opts.limit >= 0 && opts.limit < len(matched) {
		matched = matched[:opts.limit]
	}
	var out bytes.Buffer
	for _, row := range matched {
		if star || opts.count {
			out.WriteString(strings.Join(row, "|"))
		} else {
			var cells []string
			for _, p := range proj {
				for ci, cname := range tb.Cols {
					if strings.EqualFold(cname, p) && ci < len(row) {
						cells = append(cells, row[ci])
					}
				}
			}
			out.WriteString(strings.Join(cells, "|"))
		}
		out.WriteByte('\n')
	}
	nrows := len(candidates)
	count := len(matched)
	s.stateMu.Unlock()
	t.Work(s.cfg.WorkPerRow * (nrows + 1))
	tb.lock.RUnlock(t)
	if opts.count {
		return fmt.Sprintf("COUNT %d\n", count)
	}
	return fmt.Sprintf("ROWS %d\n%s", count, out.String())
}

func (s *Server) execUpdate(t papi.T, toks []string, catalogMu papi.Mutex) string {
	// UPDATE t SET col = v [WHERE ...]
	if len(toks) < 6 || !strings.EqualFold(toks[2], "SET") || toks[4] != "=" {
		return "ERR syntax: UPDATE t SET col = v\n"
	}
	name := strings.ToLower(toks[1])
	tb := s.getTable(t, name, catalogMu)
	if tb == nil {
		return "ERR no such table\n"
	}
	col, val := strings.ToLower(toks[3]), toks[5]
	where, err := parseWhere(toks)
	if err != nil {
		return "ERR bad WHERE\n"
	}
	tb.lock.Lock(t)
	s.stateMu.Lock()
	ci := -1
	for i, c := range tb.Cols {
		if strings.ToLower(c) == col {
			ci = i
			break
		}
	}
	n := 0
	if ci >= 0 {
		for ri, row := range tb.Rows {
			if where.matches(tb.Cols, row) {
				if ci == 0 {
					// Maintain the first-column index.
					old := row[0]
					idx := tb.Index[old]
					for k, v2 := range idx {
						if v2 == ri {
							tb.Index[old] = append(idx[:k], idx[k+1:]...)
							break
						}
					}
					tb.Index[val] = append(tb.Index[val], ri)
				}
				row[ci] = val
				n++
			}
		}
	}
	total := len(tb.Rows)
	s.stateMu.Unlock()
	t.Work(s.cfg.WorkPerRow * (total + 1))
	tb.lock.Unlock(t)
	if s.cfg.Persist && n > 0 {
		s.fs.Append("data/"+name+".ibd", []byte(fmt.Sprintf("#update %s=%s n=%d\n", col, val, n)))
	}
	return fmt.Sprintf("OK %d\n", n)
}

func (s *Server) execDelete(t papi.T, toks []string, catalogMu papi.Mutex) string {
	// DELETE FROM t [WHERE ...]
	if len(toks) < 3 || !strings.EqualFold(toks[1], "FROM") {
		return "ERR syntax: DELETE FROM t\n"
	}
	name := strings.ToLower(toks[2])
	tb := s.getTable(t, name, catalogMu)
	if tb == nil {
		return "ERR no such table\n"
	}
	where, err := parseWhere(toks)
	if err != nil {
		return "ERR bad WHERE\n"
	}
	tb.lock.Lock(t)
	s.stateMu.Lock()
	var kept [][]string
	n := 0
	for _, row := range tb.Rows {
		if where.matches(tb.Cols, row) {
			n++
			continue
		}
		kept = append(kept, row)
	}
	tb.Rows = kept
	tb.rebuildIndex()
	total := len(kept)
	s.stateMu.Unlock()
	t.Work(s.cfg.WorkPerRow * (total + n + 1))
	tb.lock.Unlock(t)
	if s.cfg.Persist && n > 0 {
		s.fs.Append("data/"+name+".ibd", []byte(fmt.Sprintf("#delete n=%d\n", n)))
	}
	return fmt.Sprintf("OK %d\n", n)
}

// Tables returns the sorted table names (test observability).
func (s *Server) Tables() []string {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	var names []string
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var _ papi.Instance = (*Server)(nil)
