package lint

// The interprocedural engine: cranevet's one call graph, its one table of
// nondeterminism sources and determinism sinks, and the taint summaries
// detflow reports from. lockorder walks the same graph to compute lock
// sets; nondet and specleak read the same tables.
//
//  1. The call graph has a node for every function, method and function
//     literal the loader type-checked from source. Calls are resolved by
//     the four rules of callees: static calls, variables bound to
//     functions, func-typed struct fields (stored into directly or through
//     a setter), and interface methods (dispatched to the loaded concrete
//     methods that implement them). Cross-package callees are keyed by a
//     stable "pkgpath.Recv.Name" string because a package loaded from
//     source and the same package seen through gc export data produce
//     distinct types.Func objects.
//
//  2. Strongly connected components (Tarjan) order the graph so callee
//     summaries exist before callers need them; members of one SCC
//     iterate together to a fixpoint.
//
//  3. Each declared function body is analyzed flow-insensitively to its
//     own fixpoint: taint propagates through assignments, composite
//     literals, returns, parameters, struct fields, package-level
//     variables, writers (fmt.Fprint* and Write* taint what they write
//     to), and closure bodies (closures are analyzed inline against the
//     enclosing function's environment, so captured variables flow both
//     ways). The result is a summary: which results carry source taint
//     unconditionally, which parameters flow to which results, and which
//     parameters flow into a determinism sink inside the function or its
//     callees.
//
//  4. A final reporting pass re-runs the intra-function analysis with
//     every summary in place and emits a finding wherever real source
//     taint reaches a sink, carrying the full laundering chain
//     (source function → helpers → sink) in the message.
//
// Struct fields and package-level variables are tracked engine-wide by a
// name key (over-approximate across same-named fields of one package, and
// only real source taint — not parameter taint — enters the global set);
// the summary phase repeats until that set stabilizes.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ---------------------------------------------------------------------------
// Sources and sinks
// ---------------------------------------------------------------------------

// Source kinds. detflow witnesses carry them; nondet names the construct
// at its use site in replicated packages.
const (
	kindTime      = "time.Now"
	kindRand      = "math/rand"
	kindEnv       = "os.Getenv"
	kindMapOrder  = "map iteration order"
	kindSelect    = "select arm order"
	kindPtrFormat = "pointer formatting"
	kindMapHash   = "unseeded maphash"
	kindClock     = "live DMT clock"
)

// source is one row of the source table: the kind a tainted value carries,
// what the call reads, and the papi replacement nondet suggests.
type source struct{ kind, reads, papi string }

// sourceFuncs maps a function key (see funcID) to its source row. The
// live DMT clock is a source because an app thread reading it between its
// own turns sees other threads' ticks, which land in physical time.
// Functions whose whole package is a source are matched by sourcePkgs.
var sourceFuncs = map[string]source{
	"time.Now":     {kindTime, "physical time", "papi.T.Now (deterministic logical-clock time)"},
	"time.Since":   {kindTime, "physical time", "papi.T.Now deltas"},
	"time.Until":   {kindTime, "physical time", "papi.T.Now deltas"},
	"time.After":   {kindTime, "physical time", "papi.Listener.Poll deadlines"},
	"os.Getenv":    {kindEnv, "the process environment", "configuration passed at startup"},
	"os.LookupEnv": {kindEnv, "the process environment", "configuration passed at startup"},
	"os.Environ":   {kindEnv, "the process environment", "configuration passed at startup"},

	"crane/internal/dmt.Scheduler.ClockFast": {kindClock, "other threads' ticks", "papi.T.Now"},
	"crane/internal/dmt.Scheduler.Stats":     {kindClock, "other threads' ticks", "papi.T.Now"},
	"crane/internal/dmt.Scheduler.LaneStats": {kindClock, "other threads' ticks", "papi.T.Now"},
}

// sourcePkgs taints every call into the package; nondet flags its import.
var sourcePkgs = map[string]source{
	"math/rand":    {kindRand, "", "papi.Rand (deterministic seeded PRNG)"},
	"math/rand/v2": {kindRand, "", "papi.Rand (deterministic seeded PRNG)"},
	"hash/maphash": {kindMapHash, "", "a fixed hash such as hash/fnv"},
}

// sinkSpec describes one determinism sink: the label findings carry,
// whether the receiver itself is payload, and whether the effect is
// client-visible and so must pass the speculation gate (specleak). For
// almost every sink only the explicit arguments cross the boundary — a
// *Sequence with a tainted stats field does not make Enqueue
// nondeterministic — but for Entry.Encode the receiver IS the payload.
type sinkSpec struct {
	label string
	recv  bool
	gated bool
}

// sinkFuncs maps function keys to their sink spec. These are the
// determinism boundary of the system: a nondeterministic value crossing
// any of them reaches the consensus wire, the schedule, the durable log,
// or a client — and breaks the bit-identical-replicas guarantee.
var sinkFuncs = map[string]sinkSpec{
	// seq wire: what gets proposed must be identical on every replica.
	"crane/internal/seq.Entry.Encode":         {"seq.Entry.Encode", true, false},
	"crane/internal/seq.EncodeBatch":          {"seq.EncodeBatch", false, false},
	"crane/internal/seq.Sequence.Enqueue":     {"seq.Sequence.Enqueue", false, false},
	"crane/internal/seq.Sequence.EnqueueSpec": {"seq.Sequence.EnqueueSpec", false, false},
	// DMT schedule: spawn names and wait/signal keys fold into the
	// deterministic schedule hash.
	"crane/internal/dmt.Scheduler.Spawn":  {"dmt.Scheduler.Spawn", false, false},
	"crane/internal/dmt.Thread.WaitOn":    {"dmt.Thread.WaitOn", false, false},
	"crane/internal/dmt.Thread.SignalKey": {"dmt.Thread.SignalKey", false, false},
	"crane/internal/papi.T.Spawn":         {"papi.T.Spawn", false, false},
	"crane/internal/papi.T.SpawnLane":     {"papi.T.SpawnLane", false, false},
	// Client-visible output: the speculation gate and the socket layers.
	"crane/internal/crane.Replica.emitOutput": {"crane.Replica.emitOutput", false, false},
	"crane/internal/crane.speculator.emit":    {"crane.speculator.emit", false, false},
	"crane/internal/papi.Conn.Send":           {"papi.Conn.Send", false, false},
	"crane/internal/simnet.Conn.Write":        {"simnet.Conn.Write", false, true},
	// Durability and the cross-replica output fingerprint.
	"crane/internal/wal.Log.Append":         {"wal.Log.Append", false, true},
	"crane/internal/wal.Log.AppendBatch":    {"wal.Log.AppendBatch", false, true},
	"crane/internal/trace.OutputLog.Record": {"trace.OutputLog.Record", false, true},
}

// funcID builds the stable cross-package identity of a function:
// "pkgpath.Name" for package functions, "pkgpath.Recv.Name" for methods
// (pointer receivers and interface methods included).
func funcID(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name() + "."
		}
	}
	return fn.Pkg().Path() + "." + recv + fn.Name()
}

// shortName is the human form used in chain messages: "pkg.Func" or
// "pkg.Recv.Func" with the package's base name.
func shortName(fn *types.Func) string {
	key := funcID(fn)
	if fn.Pkg() != nil {
		if i := strings.LastIndex(fn.Pkg().Path(), "/"); i >= 0 {
			return key[i+1:]
		}
	}
	return key
}

// ---------------------------------------------------------------------------
// Taint lattice
// ---------------------------------------------------------------------------

// witness is one way a value became tainted: the source kind, where the
// source fired, and the chain of functions the value was laundered
// through. Parameter taint (kind "param:<i>") is the synthetic seed used
// to compute summaries.
type witness struct {
	kind  string
	pos   token.Pos
	fset  *token.FileSet
	chain []string
}

func (w witness) withChain(links ...string) witness {
	if len(links) == 0 {
		return w
	}
	chain := make([]string, 0, len(w.chain)+len(links))
	chain = append(chain, w.chain...)
	for _, l := range links {
		if len(chain) == 0 || chain[len(chain)-1] != l {
			chain = append(chain, l)
		}
	}
	w.chain = chain
	return w
}

func paramKind(i int) string { return "param:" + strconv.Itoa(i) }

func paramIndex(kind string) (int, bool) {
	if !strings.HasPrefix(kind, "param:") {
		return 0, false
	}
	i, err := strconv.Atoi(kind[len("param:"):])
	return i, err == nil
}

// wset is a taint set: at most one witness per kind (the first seen — the
// shortest chain, since propagation is breadth-first-ish and monotone).
type wset map[string]witness

func (s wset) add(w witness) bool {
	if _, ok := s[w.kind]; ok {
		return false
	}
	s[w.kind] = w
	return true
}

func (s wset) union(o wset) bool {
	changed := false
	for _, w := range o {
		if s.add(w) {
			changed = true
		}
	}
	return changed
}

func (s wset) clone() wset {
	c := make(wset, len(s))
	for k, w := range s {
		c[k] = w
	}
	return c
}

// real returns only the non-parameter witnesses.
func (s wset) real() wset {
	r := wset{}
	for k, w := range s {
		if _, isParam := paramIndex(k); !isParam {
			r[k] = w
		}
	}
	return r
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

// sinkHit records taint reaching a sink call inside a function (or one of
// its callees, with the chain extended accordingly).
type sinkHit struct {
	sink  string    // sink label from sinkFuncs
	pos   token.Pos // the sink call site
	pkgIx int       // index of the package containing pos
	chain []string  // functions from summary owner to the sink
}

// summary is the interprocedural contract of one function.
type summary struct {
	nParams int
	nRets   int
	// retSource[j]: real taint carried by result j regardless of inputs.
	retSource []wset
	// paramRet[i][j]: non-nil if param i flows to result j; the value is
	// the chain of helpers traversed on the way.
	paramRet [][][]string
	// paramSink[i]: sinks param i reaches inside this function or below.
	paramSink [][]sinkHit
}

func newSummary(nParams, nRets int) *summary {
	s := &summary{nParams: nParams, nRets: nRets}
	s.retSource = make([]wset, nRets)
	for j := range s.retSource {
		s.retSource[j] = wset{}
	}
	s.paramRet = make([][][]string, nParams)
	for i := range s.paramRet {
		s.paramRet[i] = make([][]string, nRets)
	}
	s.paramSink = make([][]sinkHit, nParams)
	return s
}

func (s *summary) addParamSink(i int, h sinkHit) bool {
	for _, e := range s.paramSink[i] {
		if e.pos == h.pos && e.sink == h.sink {
			return false
		}
	}
	s.paramSink[i] = append(s.paramSink[i], h)
	return true
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

// fnNode is one function body in the loaded universe: a declared function
// or method, or a function literal (a node of its own, reached by calls
// through the variables and fields it is stored in).
type fnNode struct {
	key   string
	name  string       // chain and diagnostic name
	fn    *types.Func  // nil for a function literal
	lit   *ast.FuncLit // nil for a declared function
	body  *ast.BlockStmt
	pkgIx int
	// callees are the keys of every node a call in body (literals
	// included) may run; they order the SCCs.
	callees map[string]bool
	sum     *summary
}

// Engine holds the call graph and computed summaries for one loaded
// package universe. Build once per RunAnalyzers invocation; analyzers
// with a RunEngine hook receive it.
type Engine struct {
	pkgs  []*Package
	fns   map[string]*fnNode
	lits  map[*ast.FuncLit]*fnNode
	order [][]string // SCCs, callees before callers
	// varFuncs maps a variable to the functions assigned to it.
	varFuncs map[types.Object][]*fnNode
	// fieldFuncs maps a func-typed field (objKey) to the functions stored
	// into it.
	fieldFuncs map[string][]*fnNode
	// methods indexes concrete methods by name; dispatch caches the
	// implementers of each interface method.
	methods  map[string][]*fnNode
	dispatch map[string][]*fnNode
	// globalTaint holds real taint of struct fields and package-level
	// variables, keyed by objKey.
	globalTaint map[string]wset
	// findings collected by the reporting pass, deduplicated engine-wide
	// by (sink position, source kind, source position) so two callers of
	// one leaky helper yield one finding.
	findings map[string]engineFinding
}

type engineFinding struct {
	pos    token.Pos
	pkgIx  int
	kind   string
	srcPos token.Position
	sink   string
	chain  []string
}

// objKey names a struct field or package-level variable engine-wide.
// Fields are keyed by declaration site (file base name + line + name), so
// same-named fields of different structs in one package stay distinct;
// gc export data preserves declaration positions, so a field seen through
// an import keys the same as in its source-loaded package.
func objKey(fset *token.FileSet, obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return ""
	}
	if v.IsField() {
		pos := fset.Position(v.Pos())
		return v.Pkg().Path() + ".field." + filepath.Base(pos.Filename) + ":" +
			strconv.Itoa(pos.Line) + "." + v.Name()
	}
	// Package-level variable?
	if v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + ".var." + v.Name()
	}
	return ""
}

// NewEngine builds the call graph and computes all summaries.
func NewEngine(pkgs []*Package) *Engine {
	e := &Engine{
		pkgs:        pkgs,
		fns:         map[string]*fnNode{},
		lits:        map[*ast.FuncLit]*fnNode{},
		varFuncs:    map[types.Object][]*fnNode{},
		fieldFuncs:  map[string][]*fnNode{},
		methods:     map[string][]*fnNode{},
		dispatch:    map[string][]*fnNode{},
		globalTaint: map[string]wset{},
		findings:    map[string]engineFinding{},
	}
	e.index()
	for _, node := range e.fns {
		node.callees = map[string]bool{}
		ast.Inspect(node.body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, c := range e.callees(e.pkgs[node.pkgIx], call) {
					node.callees[c.key] = true
				}
			}
			return true
		})
	}
	e.order = e.sccOrder()
	e.computeSummaries()
	e.reportingPass()
	return e
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

// index creates a node for every body, then records what the call graph
// needs beyond static calls: functions bound to variables, functions
// stored into func-typed fields directly or through a setter's
// parameter, and concrete methods by name.
func (e *Engine) index() {
	e.inspect(func(ix int, pkg *Package, n ast.Node) {
		var node *fnNode
		switch n := n.(type) {
		case *ast.FuncDecl:
			if fn, ok := pkg.Info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
				node = &fnNode{key: funcID(fn), name: shortName(fn), fn: fn, body: n.Body, pkgIx: ix}
				if fn.Type().(*types.Signature).Recv() != nil {
					e.methods[fn.Name()] = append(e.methods[fn.Name()], node)
				}
			}
		case *ast.FuncLit:
			pos := pkg.Fset.Position(n.Pos())
			name := fmt.Sprintf("func literal at %s:%d", pos.Filename, pos.Line)
			node = &fnNode{key: name + ":" + strconv.Itoa(pos.Column), name: name, lit: n, body: n.Body, pkgIx: ix}
			e.lits[n] = node
		}
		if node != nil {
			e.fns[node.key] = node
		}
	})
	// stored maps a variable to the field it is stored into, so a setter's
	// parameter resolves at the setter's call sites.
	stored := map[types.Object]string{}
	e.inspect(func(_ int, pkg *Package, n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := 0; i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs); i++ {
				e.bind(pkg, n.Lhs[i], n.Rhs[i], stored)
			}
		case *ast.ValueSpec:
			for i := 0; i < len(n.Names) && len(n.Names) == len(n.Values); i++ {
				e.bind(pkg, n.Names[i], n.Values[i], stored)
			}
		}
	})
	e.inspect(func(_ int, pkg *Package, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if node := e.fns[funcID(staticCallee(pkg.Info, call))]; node != nil {
			params := node.fn.Type().(*types.Signature).Params()
			for i := 0; i < params.Len() && i < len(call.Args); i++ {
				if field, ok := stored[params.At(i)]; ok {
					e.fieldFuncs[field] = appendNode(e.fieldFuncs[field], e.funcValue(pkg, call.Args[i]))
				}
			}
		}
	})
}

// inspect walks every loaded file.
func (e *Engine) inspect(visit func(ix int, pkg *Package, n ast.Node)) {
	for ix, pkg := range e.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				visit(ix, pkg, n)
				return true
			})
		}
	}
}

// bind records lhs = rhs when rhs is a function value stored into a
// variable or a func-typed field, or a variable stored into a field.
func (e *Engine) bind(pkg *Package, lhs, rhs ast.Expr, stored map[types.Object]string) {
	target := e.funcValue(pkg, rhs)
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := pkg.Info.ObjectOf(lhs); obj != nil && target != nil {
			e.varFuncs[obj] = appendNode(e.varFuncs[obj], target)
		}
	case *ast.SelectorExpr:
		field := objKey(pkg.Fset, pkg.Info.Uses[lhs.Sel])
		id, isIdent := ast.Unparen(rhs).(*ast.Ident)
		switch {
		case field == "":
		case target != nil:
			e.fieldFuncs[field] = appendNode(e.fieldFuncs[field], target)
		case isIdent && pkg.Info.Uses[id] != nil:
			stored[pkg.Info.Uses[id]] = field
		}
	}
}

// funcValue resolves an expression used as a function value: a literal,
// a declared function, or a method value.
func (e *Engine) funcValue(pkg *Package, x ast.Expr) *fnNode {
	switch x := ast.Unparen(x).(type) {
	case *ast.FuncLit:
		return e.lits[x]
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[x].(*types.Func)
		return e.fns[funcID(fn)]
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[x.Sel].(*types.Func)
		return e.fns[funcID(fn)]
	}
	return nil
}

func appendNode(nodes []*fnNode, n *fnNode) []*fnNode {
	if n == nil {
		return nodes
	}
	for _, have := range nodes {
		if have == n {
			return nodes
		}
	}
	return append(nodes, n)
}

// callees resolves a call to the loaded bodies it may run. It is the one
// call graph of cranevet, built from four rules:
//
//  1. a static call runs the function or method it names;
//  2. a call through a variable runs the functions assigned to it, and an
//     immediately invoked literal runs itself;
//  3. a call through a func-typed struct field runs every function stored
//     into that field, directly or through a setter's parameter;
//  4. an interface method call runs every loaded concrete method that
//     implements it.
func (e *Engine) callees(pkg *Package, call *ast.CallExpr) []*fnNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return []*fnNode{e.lits[fun]}
	case *ast.Ident:
		if fns := e.varFuncs[pkg.Info.Uses[fun]]; fns != nil {
			return fns
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			return e.fieldFuncs[objKey(pkg.Fset, sel.Obj())]
		}
	}
	fn := staticCallee(pkg.Info, call)
	if fn == nil {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return e.implementers(fn)
	}
	if node := e.fns[funcID(fn)]; node != nil {
		return []*fnNode{node}
	}
	return nil
}

// staticCallee resolves a call to the *types.Func it names: a package
// function, a concrete method, or an interface method (nil for calls
// through func values).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// implementers returns the loaded concrete methods an interface method
// call may dispatch to. types.Implements cannot answer here: a package
// loaded from source and the same package seen through gc export data are
// distinct type universes, so the same interface has two identities.
// Methods are matched instead by name and by signature text, whose types
// TypeString qualifies by package path.
func (e *Engine) implementers(fn *types.Func) []*fnNode {
	key := funcID(fn)
	if nodes, ok := e.dispatch[key]; ok {
		return nodes
	}
	iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	var nodes []*fnNode
	for _, node := range e.methods[fn.Name()] {
		recv := node.fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		have := map[string]string{}
		ms := types.NewMethodSet(types.NewPointer(recv))
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			have[m.Name()] = types.TypeString(m.Type(), nil)
		}
		ok := true
		for i := 0; i < iface.NumMethods() && ok; i++ {
			m := iface.Method(i)
			ok = have[m.Name()] == types.TypeString(m.Type(), nil)
		}
		if ok {
			nodes = append(nodes, node)
		}
	}
	e.dispatch[key] = nodes
	return nodes
}

// sccOrder returns Tarjan SCCs in reverse topological order (callees
// before callers), deterministically.
func (e *Engine) sccOrder() [][]string {
	keys := make([]string, 0, len(e.fns))
	for k := range e.fns {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		callees := make([]string, 0, len(e.fns[v].callees))
		for c := range e.fns[v].callees {
			callees = append(callees, c)
		}
		sort.Strings(callees)
		for _, w := range callees {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}
	// Tarjan emits SCCs in reverse topological order already (a
	// component is completed only after everything it reaches).
	return sccs
}

// computeSummaries runs the bottom-up summary phase, iterating the whole
// schedule until the engine-wide field/global taint set stabilizes.
func (e *Engine) computeSummaries() {
	for round := 0; round < 4; round++ {
		changed := false
		for _, scc := range e.order {
			// Members of an SCC iterate together until their summaries
			// stop changing.
			for iter := 0; iter < 8; iter++ {
				sccChanged := false
				for _, key := range scc {
					node := e.fns[key]
					if node.fn != nil && e.installSummary(node, e.analyze(node, false)) {
						sccChanged = true
					}
				}
				if !sccChanged {
					break
				}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// installSummary replaces node's summary with the freshly computed one,
// reporting whether anything grew.
func (e *Engine) installSummary(node *fnNode, fresh *summary) bool {
	old := node.sum
	node.sum = fresh
	if old == nil {
		return true
	}
	if len(old.retSource) != len(fresh.retSource) {
		return true
	}
	for j := range fresh.retSource {
		if len(fresh.retSource[j]) != len(old.retSource[j]) {
			return true
		}
	}
	for i := range fresh.paramRet {
		for j := range fresh.paramRet[i] {
			if (fresh.paramRet[i][j] != nil) != (old.paramRet[i][j] != nil) {
				return true
			}
		}
	}
	for i := range fresh.paramSink {
		if len(fresh.paramSink[i]) != len(old.paramSink[i]) {
			return true
		}
	}
	return false
}

// reportingPass re-analyzes every declared function with final summaries
// and collects real-taint-reaches-sink findings. Literals are analyzed
// inline with the function that declares them.
func (e *Engine) reportingPass() {
	for _, scc := range e.order {
		for _, key := range scc {
			if node := e.fns[key]; node.fn != nil {
				e.analyze(node, true)
			}
		}
	}
}

// sortedFindings returns the reporting-pass results in deterministic
// (package, position) order.
func (e *Engine) sortedFindings() []engineFinding {
	out := make([]engineFinding, 0, len(e.findings))
	for _, f := range e.findings {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.pkgIx != b.pkgIx {
			return a.pkgIx < b.pkgIx
		}
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.kind < b.kind
	})
	return out
}

// ---------------------------------------------------------------------------
// Intra-function analysis
// ---------------------------------------------------------------------------

// fnAnalysis is the per-function environment of one analyze run.
type fnAnalysis struct {
	eng    *Engine
	node   *fnNode
	pkg    *Package
	report bool
	env    map[types.Object]wset
	// litRets caches per-FuncLit return taints from the current walk.
	litRets map[*ast.FuncLit][]wset
	sum     *summary
}

// analyze runs the flow-insensitive fixpoint over node's body. With
// report=false it computes and returns a fresh summary; with report=true
// it emits findings for real taint reaching sinks.
func (e *Engine) analyze(node *fnNode, report bool) *summary {
	pkg := e.pkgs[node.pkgIx]
	sig := node.fn.Type().(*types.Signature)
	params := flattenParams(sig)
	nRets := sig.Results().Len()

	fa := &fnAnalysis{
		eng:     e,
		node:    node,
		pkg:     pkg,
		report:  report,
		env:     map[types.Object]wset{},
		litRets: map[*ast.FuncLit][]wset{},
		sum:     newSummary(len(params), nRets),
	}
	// Seed parameters (receiver first) with their synthetic kinds.
	for i, p := range params {
		if p == nil {
			continue
		}
		fa.env[p] = wset{paramKind(i): {kind: paramKind(i)}}
	}
	retTaint := make([]wset, nRets)
	for j := range retTaint {
		retTaint[j] = wset{}
	}
	for iter := 0; iter < 12; iter++ {
		// Closure bodies are re-walked each iteration so taint captured
		// from the enclosing scope after the first pass still propagates.
		fa.litRets = map[*ast.FuncLit][]wset{}
		changed := fa.walkBody(node.body, retTaint, sig)
		if !changed {
			break
		}
	}
	// Fold return taints into the summary.
	for j, ts := range retTaint {
		for kind, w := range ts {
			if i, isParam := paramIndex(kind); isParam {
				if fa.sum.paramRet[i][j] == nil {
					fa.sum.paramRet[i][j] = append([]string{}, w.chain...)
				}
				continue
			}
			fa.sum.retSource[j].add(w.withChain(node.name))
		}
	}
	return fa.sum
}

// flattenParams returns receiver + parameters as objects (nil entries for
// unnamed/underscore parameters keep indexes stable).
func flattenParams(sig *types.Signature) []*types.Var {
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// walkBody processes every statement once, in source order, merging taint
// into fa.env; returns whether anything changed.
func (fa *fnAnalysis) walkBody(body *ast.BlockStmt, retTaint []wset, sig *types.Signature) bool {
	w := &stmtWalker{fa: fa, retTaint: retTaint, sig: sig}
	w.stmt(body)
	return w.changed
}

type stmtWalker struct {
	fa       *fnAnalysis
	retTaint []wset
	sig      *types.Signature
	changed  bool
}

func (w *stmtWalker) merge(obj types.Object, ts wset) {
	if obj == nil || len(ts) == 0 {
		return
	}
	cur := w.fa.env[obj]
	if cur == nil {
		cur = wset{}
		w.fa.env[obj] = cur
	}
	if cur.union(ts) {
		w.changed = true
	}
	// Stores into struct fields and package-level variables publish real
	// taint engine-wide.
	if key := objKey(w.fa.pkg.Fset, obj); key != "" {
		real := ts.real()
		if len(real) > 0 {
			g := w.fa.eng.globalTaint[key]
			if g == nil {
				g = wset{}
				w.fa.eng.globalTaint[key] = g
			}
			if g.union(real) {
				w.changed = true
			}
		}
	}
}

func (w *stmtWalker) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			w.stmt(st)
		}
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				w.valueSpec(vs)
			}
		}
	case *ast.ReturnStmt:
		w.ret(s)
	case *ast.RangeStmt:
		w.rangeStmt(s)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Post)
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		// `switch v := x.(type)`: each clause binds a distinct implicit
		// object for v; all of them get x's taint.
		if as, ok := s.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			ts := w.expr(as.Rhs[0])
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CaseClause); ok {
					if obj, ok := w.fa.pkg.Info.Implicits[cc]; ok {
						w.merge(obj, ts)
					}
				}
			}
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			w.expr(es.X)
		}
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, x := range s.List {
			w.expr(x)
		}
		for _, st := range s.Body {
			w.stmt(st)
		}
	case *ast.SelectStmt:
		w.selectStmt(s)
	case *ast.CommClause:
		// handled by selectStmt
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

func (w *stmtWalker) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == 0 {
		return
	}
	if len(vs.Names) > 1 && len(vs.Values) == 1 {
		// var a, b = f()
		tss := w.callResults(vs.Values[0], len(vs.Names))
		for i, name := range vs.Names {
			w.merge(w.fa.pkg.Info.Defs[name], tss[i])
		}
		return
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			w.merge(w.fa.pkg.Info.Defs[name], w.expr(vs.Values[i]))
		}
	}
}

func (w *stmtWalker) assign(s *ast.AssignStmt) {
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		tss := w.callResults(s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			w.store(lhs, tss[i])
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		w.store(lhs, w.expr(s.Rhs[i]))
	}
}

// callResults evaluates a single-call RHS feeding n targets.
func (w *stmtWalker) callResults(rhs ast.Expr, n int) []wset {
	out := make([]wset, n)
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		rets := w.call(call)
		for i := 0; i < n; i++ {
			if i < len(rets) {
				out[i] = rets[i]
			} else {
				out[i] = wset{}
			}
		}
		return out
	}
	// map lookup `v, ok := m[k]`, type assertion, channel receive.
	ts := w.expr(rhs)
	for i := range out {
		out[i] = ts
	}
	return out
}

// store merges ts into the object behind an lvalue.
func (w *stmtWalker) store(lhs ast.Expr, ts wset) {
	if len(ts) == 0 {
		return
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := w.fa.pkg.Info.Defs[lhs]
		if obj == nil {
			obj = w.fa.pkg.Info.Uses[lhs]
		}
		w.merge(obj, ts)
	case *ast.SelectorExpr:
		// x.f = v: taint the field object (engine-wide for real kinds)
		// and the base object.
		if sel, ok := w.fa.pkg.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			w.merge(sel.Obj(), ts)
		} else {
			w.merge(w.fa.pkg.Info.Uses[lhs.Sel], ts)
		}
		w.merge(rootObjOf(w.fa.pkg.Info, lhs.X), ts)
	case *ast.IndexExpr:
		// Element store taints the container — except that storing into a
		// *map* erases iteration-order taint: map contents are
		// order-independent however they were inserted.
		base := rootObjOf(w.fa.pkg.Info, lhs.X)
		if tv, ok := w.fa.pkg.Info.Types[lhs.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				ts = ts.clone()
				delete(ts, kindMapOrder)
			}
		}
		w.merge(base, ts)
	case *ast.StarExpr:
		w.merge(rootObjOf(w.fa.pkg.Info, lhs.X), ts)
	}
}

func (w *stmtWalker) ret(s *ast.ReturnStmt) {
	if len(s.Results) == 0 {
		// Bare return with named results: fold env of the named result
		// objects.
		res := w.sig.Results()
		for j := 0; j < res.Len(); j++ {
			if v := res.At(j); v != nil && v.Name() != "" {
				if ts := w.fa.env[v]; ts != nil {
					if w.retTaint[j].union(ts) {
						w.changed = true
					}
				}
			}
		}
		return
	}
	if len(s.Results) == 1 && len(w.retTaint) > 1 {
		tss := w.callResults(s.Results[0], len(w.retTaint))
		for j := range w.retTaint {
			if w.retTaint[j].union(tss[j]) {
				w.changed = true
			}
		}
		return
	}
	for j, r := range s.Results {
		if j >= len(w.retTaint) {
			break
		}
		if w.retTaint[j].union(w.expr(r)) {
			w.changed = true
		}
	}
}

func (w *stmtWalker) rangeStmt(s *ast.RangeStmt) {
	ts := w.expr(s.X)
	tv, ok := w.fa.pkg.Info.Types[s.X]
	keyTaint, valTaint := ts, ts
	if ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			// Map iteration: the sequence of keys/values is
			// order-nondeterministic.
			mo := wset{kindMapOrder: w.source(kindMapOrder, s.Pos())}
			keyTaint = keyTaint.clone()
			keyTaint.union(mo)
			valTaint = keyTaint
		}
	}
	for taint, e := range map[*wset]ast.Expr{&keyTaint: s.Key, &valTaint: s.Value} {
		if e == nil {
			continue
		}
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			obj := w.fa.pkg.Info.Defs[id]
			if obj == nil {
				obj = w.fa.pkg.Info.Uses[id]
			}
			w.merge(obj, *taint)
		} else {
			w.store(e, *taint)
		}
	}
	w.stmt(s.Body)
}

func (w *stmtWalker) selectStmt(s *ast.SelectStmt) {
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if as, ok := cc.Comm.(*ast.AssignStmt); ok {
			// v := <-ch inside select: which arm ran is nondeterministic.
			sel := wset{kindSelect: w.source(kindSelect, s.Pos())}
			for _, lhs := range as.Lhs {
				w.store(lhs, sel)
			}
			for _, rhs := range as.Rhs {
				w.expr(rhs)
			}
		} else {
			w.stmt(cc.Comm)
		}
		for _, st := range cc.Body {
			w.stmt(st)
		}
	}
}

// source is the witness of a source of kind firing at pos in this function.
func (w *stmtWalker) source(kind string, pos token.Pos) witness {
	return witness{kind: kind, pos: pos, fset: w.fa.pkg.Fset, chain: []string{w.fa.node.name}}
}

// expr computes the taint of an expression, with all side effects
// (calls, closure bodies) applied.
func (w *stmtWalker) expr(e ast.Expr) wset {
	if e == nil {
		return wset{}
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := w.fa.pkg.Info.Uses[e]
		if obj == nil {
			obj = w.fa.pkg.Info.Defs[e]
		}
		out := wset{}
		if ts := w.fa.env[obj]; ts != nil {
			out.union(ts)
		}
		if obj != nil {
			if key := objKey(w.fa.pkg.Fset, obj); key != "" {
				if g := w.fa.eng.globalTaint[key]; g != nil {
					out.union(g)
				}
			}
		}
		return out
	case *ast.SelectorExpr:
		out := wset{}
		if sel, ok := w.fa.pkg.Info.Selections[e]; ok {
			if sel.Kind() == types.FieldVal {
				obj := sel.Obj()
				if ts := w.fa.env[obj]; ts != nil {
					out.union(ts)
				}
				if key := objKey(w.fa.pkg.Fset, obj); key != "" {
					if g := w.fa.eng.globalTaint[key]; g != nil {
						out.union(g)
					}
				}
			}
			out.union(w.expr(e.X))
			return out
		}
		// Qualified identifier pkg.Var / pkg.Func.
		if obj := w.fa.pkg.Info.Uses[e.Sel]; obj != nil {
			if key := objKey(w.fa.pkg.Fset, obj); key != "" {
				if g := w.fa.eng.globalTaint[key]; g != nil {
					out.union(g)
				}
			}
		}
		return out
	case *ast.CallExpr:
		rets := w.call(e)
		out := wset{}
		for _, ts := range rets {
			out.union(ts)
		}
		return out
	case *ast.BinaryExpr:
		out := w.expr(e.X).clone()
		out.union(w.expr(e.Y))
		return out
	case *ast.UnaryExpr:
		return w.expr(e.X)
	case *ast.StarExpr:
		return w.expr(e.X)
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.IndexExpr:
		out := w.expr(e.X).clone()
		out.union(w.expr(e.Index))
		return out
	case *ast.IndexListExpr:
		return w.expr(e.X)
	case *ast.SliceExpr:
		return w.expr(e.X)
	case *ast.TypeAssertExpr:
		return w.expr(e.X)
	case *ast.CompositeLit:
		out := wset{}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out.union(w.expr(kv.Value))
				continue
			}
			out.union(w.expr(el))
		}
		return out
	case *ast.FuncLit:
		// Closures are analyzed inline against the enclosing
		// environment, so captured variables flow both ways. The lit's
		// own returns are cached for calls through a bound variable.
		w.funcLit(e)
		return wset{}
	}
	return wset{}
}

// funcLit analyzes a closure body inline and records its return taints.
func (w *stmtWalker) funcLit(lit *ast.FuncLit) []wset {
	if cached, ok := w.fa.litRets[lit]; ok {
		// Already walked this iteration? Walk again anyway only once per
		// outer iteration to keep cost bounded.
		return cached
	}
	sig, _ := w.fa.pkg.Info.Types[lit].Type.(*types.Signature)
	nRets := 0
	if sig != nil {
		nRets = sig.Results().Len()
	}
	rets := make([]wset, nRets)
	for j := range rets {
		rets[j] = wset{}
	}
	w.fa.litRets[lit] = rets
	inner := &stmtWalker{fa: w.fa, retTaint: rets, sig: sig}
	inner.stmt(lit.Body)
	if inner.changed {
		w.changed = true
	}
	return rets
}

// sortStrip removes map-order taint from objects passed to a sort call:
// the sorted-keys idiom launders iteration order by construction.
func (w *stmtWalker) sortStrip(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := w.fa.pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	if p := pn.Imported().Path(); p != "sort" && p != "slices" {
		return false
	}
	for _, arg := range call.Args {
		if obj := rootObjOf(w.fa.pkg.Info, arg); obj != nil {
			if ts := w.fa.env[obj]; ts != nil {
				delete(ts, kindMapOrder)
			}
		}
	}
	return true
}

// call evaluates a call expression: source intrinsics, summaries of known
// callees, sink checks, and the default propagate-args-to-results rule
// for everything unresolvable.
func (w *stmtWalker) call(call *ast.CallExpr) []wset {
	info := w.fa.pkg.Info

	// Conversions: T(x) keeps x's taint; uintptr(unsafe.Pointer) makes a
	// pointer value printable and is itself a source.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		ts := w.expr(call.Args[0]).clone()
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.Uintptr {
			if atv, ok := info.Types[call.Args[0]]; ok {
				if ab, ok := atv.Type.Underlying().(*types.Basic); ok && ab.Kind() == types.UnsafePointer {
					ts.add(w.source(kindPtrFormat, call.Pos()))
				}
			}
		}
		return []wset{ts}
	}

	if w.sortStrip(call) {
		for _, a := range call.Args {
			w.expr(a)
		}
		return []wset{{}}
	}

	// Evaluate arguments (and the receiver, if any) up front.
	argTaint := make([]wset, 0, len(call.Args)+1)
	var recvTaint wset
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recvTaint = w.expr(sel.X)
		}
	}
	for _, a := range call.Args {
		argTaint = append(argTaint, w.expr(a))
	}

	fn := staticCallee(info, call)
	key := funcID(fn)

	// Source intrinsics.
	if kind := sourceKindFor(fn); kind != "" {
		src := wset{}
		if recvTaint != nil {
			src.union(recvTaint)
		}
		for _, ts := range argTaint {
			src.union(ts)
		}
		src.add(w.source(kind, call.Pos()))
		return []wset{src}
	}

	// %p laundering through fmt.
	ptrFmt := false
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "%p") {
					ptrFmt = true
				}
			}
		}
	}

	// Full parameter list as the callee sees it: receiver first.
	fullArgs := argTaint
	if recvTaint != nil {
		fullArgs = append([]wset{recvTaint}, argTaint...)
	}

	// Sink check: only payload positions count (see sinkSpec).
	if spec, isSink := sinkFuncs[key]; isSink {
		inputs := argTaint
		if spec.recv && recvTaint != nil {
			inputs = fullArgs
		}
		for _, ts := range inputs {
			w.hitSink(spec.label, call.Pos(), ts, nil)
		}
	}

	// A static call to a loaded function applies its summary.
	if node := w.fa.eng.fns[key]; node != nil && node.sum != nil {
		return w.applySummary(node, fullArgs)
	}

	// Any other call (stdlib, a func value, an interface method)
	// conservatively propagates every input to every output, adds what
	// the functions it may run return, and taints the writer it writes to.
	out := wset{}
	for _, ts := range fullArgs {
		out.union(ts)
	}
	if ptrFmt {
		out.add(w.source(kindPtrFormat, call.Pos()))
	}
	if x := writerOf(call, fn); x != nil {
		w.merge(rootObjOf(info, x), out)
	}
	n := 1
	if tv, ok := info.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			n = tuple.Len()
		}
	}
	rets := make([]wset, n)
	for j := range rets {
		rets[j] = out.clone()
	}
	for _, t := range w.fa.eng.callees(w.fa.pkg, call) {
		var trets []wset
		switch {
		case t.sum != nil:
			args := fullArgs
			if recvTaint == nil && t.fn.Type().(*types.Signature).Recv() != nil {
				args = append([]wset{{}}, argTaint...) // a method value: the receiver is bound
			}
			trets = w.applySummary(t, args)
		case t.lit != nil && w.fa.node.body.Pos() <= t.lit.Pos() && t.lit.End() <= w.fa.node.body.End():
			trets = w.funcLit(t.lit) // a literal of this function, analyzed inline
		}
		for j := 0; j < n && j < len(trets); j++ {
			rets[j].union(trets[j])
		}
	}
	return rets
}

// writerOf returns the writer a call appends its inputs to: the first
// argument of fmt.Fprint*, or the receiver of a Write, WriteString,
// WriteByte or WriteRune method.
func writerOf(call *ast.CallExpr, fn *types.Func) ast.Expr {
	if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
		return nil
	}
	if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
		return call.Args[0]
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fn.Type().(*types.Signature).Recv() != nil {
			return sel.X
		}
	}
	return nil
}

// applySummary folds a callee's summary into this call site.
func (w *stmtWalker) applySummary(callee *fnNode, fullArgs []wset) []wset {
	sum := callee.sum
	rets := make([]wset, sum.nRets)
	for j := range rets {
		rets[j] = wset{}
		for _, src := range sum.retSource[j] {
			rets[j].add(src)
		}
	}
	feed := func(i int, ts wset) {
		if len(ts) == 0 {
			return
		}
		// Param flows to results.
		for j := 0; j < sum.nRets; j++ {
			if chain := sum.paramRet[i][j]; chain != nil {
				links := append(append([]string{}, chain...), callee.name)
				for _, wit := range ts {
					rets[j].add(wit.withChain(links...))
				}
			}
		}
		// Param flows to a sink inside the callee.
		for _, hit := range sum.paramSink[i] {
			for _, wit := range ts {
				w.hitSink(hit.sink, hit.pos, wset{wit.kind: wit}, append([]string{}, hit.chain...))
			}
		}
	}
	for i := 0; i < sum.nParams && i < len(fullArgs); i++ {
		feed(i, fullArgs[i])
	}
	// Extra args beyond the summary's params fold into the last
	// (variadic) parameter.
	if len(fullArgs) > sum.nParams && sum.nParams > 0 {
		for _, ts := range fullArgs[sum.nParams:] {
			feed(sum.nParams-1, ts)
		}
	}
	return rets
}

// hitSink records taint arriving at a sink: parameter taint feeds the
// summary, real taint becomes a finding (reporting pass only). extraChain
// is the path from the current function into the sink for hits forwarded
// out of callee summaries (nil for direct sink calls).
func (w *stmtWalker) hitSink(label string, pos token.Pos, ts wset, extraChain []string) {
	for kind, wit := range ts {
		if i, isParam := paramIndex(kind); isParam {
			w.fa.sum.addParamSink(i, sinkHit{
				sink:  label,
				pos:   pos,
				pkgIx: w.sinkPkgIx(pos),
				chain: joinChain(wit.chain, []string{w.fa.node.name}, extraChain),
			})
			continue
		}
		if !w.fa.report {
			continue
		}
		srcPos := wit.fset.Position(wit.pos)
		dedup := fmt.Sprintf("%s|%v|%s|%s", label, pos, kind, srcPos)
		if _, seen := w.fa.eng.findings[dedup]; seen {
			continue
		}
		w.fa.eng.findings[dedup] = engineFinding{
			pos:    pos,
			pkgIx:  w.sinkPkgIx(pos),
			kind:   kind,
			srcPos: srcPos,
			sink:   label,
			chain:  joinChain(wit.chain, []string{w.fa.node.name}, extraChain),
		}
	}
}

// joinChain concatenates chain segments, dropping consecutive duplicates.
func joinChain(segs ...[]string) []string {
	var out []string
	for _, seg := range segs {
		for _, s := range seg {
			if len(out) == 0 || out[len(out)-1] != s {
				out = append(out, s)
			}
		}
	}
	return out
}

// sinkPkgIx maps a sink position to the package whose fileset knows it.
// Positions forwarded from callee summaries belong to the callee's
// package; since Load shares one FileSet across packages, resolving
// through the current package is correct there, and hits recorded during
// a callee's own summary already carry its pkgIx through the summary.
func (w *stmtWalker) sinkPkgIx(pos token.Pos) int {
	for ix, pkg := range w.fa.eng.pkgs {
		for _, f := range pkg.Files {
			if f.Pos() <= pos && pos <= f.End() {
				return ix
			}
		}
	}
	return w.fa.node.pkgIx
}

// sourceKindFor classifies a resolved callee as a nondeterminism source.
func sourceKindFor(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if src, ok := sourceFuncs[funcID(fn)]; ok {
		return src.kind
	}
	if src, ok := sourcePkgs[fn.Pkg().Path()]; ok {
		return src.kind
	}
	return ""
}

// rootObjOf resolves the variable or field at the base of an lvalue
// expression (shared with the nondet analyzer's rootObject, but
// Info-parameterized so the engine can use it for any package).
func rootObjOf(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.ParenExpr:
		return rootObjOf(info, e.X)
	case *ast.UnaryExpr:
		return rootObjOf(info, e.X)
	case *ast.StarExpr:
		return rootObjOf(info, e.X)
	case *ast.IndexExpr:
		return rootObjOf(info, e.X)
	case *ast.SliceExpr:
		return rootObjOf(info, e.X)
	}
	return nil
}
