package papi

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"crane/internal/simnet"
)

// echoServer is a small listener+workers program exercising the whole T
// surface: spawn, mutex/cond worklist, accept, recv, send, work.
type echoServer struct {
	requests int
	mu       sync.Mutex
	served   int
}

func (e *echoServer) Run(t T) {
	l, err := t.Listen(80)
	if err != nil {
		panic(err)
	}
	type item struct{ c Conn }
	var (
		wl     []item
		m      = t.NewMutex()
		cv     = t.NewCond()
		closed = false
	)
	var workers []Handle
	for i := 0; i < 4; i++ {
		workers = append(workers, t.Spawn(fmt.Sprintf("worker%d", i), func(wt T) {
			for {
				m.Lock(wt)
				for len(wl) == 0 && !closed {
					cv.Wait(wt, m)
				}
				if len(wl) == 0 && closed {
					m.Unlock(wt)
					return
				}
				it := wl[0]
				wl = wl[1:]
				m.Unlock(wt)

				buf := make([]byte, 256)
				for {
					n, err := it.c.Recv(wt, buf)
					if err != nil {
						break
					}
					wt.Work(10)
					if _, err := it.c.Send(wt, bytes.ToUpper(buf[:n])); err != nil {
						break
					}
				}
				it.c.Close(wt)
				e.mu.Lock()
				e.served++
				e.mu.Unlock()
			}
		}))
	}
	for i := 0; i < e.requests; i++ {
		c, err := l.Accept(t)
		if err != nil {
			break
		}
		m.Lock(t)
		wl = append(wl, item{c})
		m.Unlock(t)
		cv.Signal(t)
	}
	m.Lock(t)
	closed = true
	m.Unlock(t)
	cv.Broadcast(t)
	for _, w := range workers {
		t.Join(w)
	}
	l.Close()
}

func (e *echoServer) Snapshot() ([]byte, error) { return nil, nil }
func (e *echoServer) Restore([]byte) error      { return nil }

func runEcho(t *testing.T, start func(net *simnet.Network, inst Instance) (kill func(), wait func())) int {
	t.Helper()
	net := simnet.New(simnet.Options{Latency: 20 * time.Microsecond})
	const clients = 8
	srv := &echoServer{requests: clients}
	kill, wait := start(net, srv)
	defer kill()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var c *simnet.Conn
			var err error
			for try := 0; try < 200; try++ {
				c, err = net.Dial(simnet.Addr(fmt.Sprintf("cli%d:1", i)), "server:80")
				if err == nil {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if err != nil {
				errs <- err
				return
			}
			msg := fmt.Sprintf("hello-%d", i)
			if _, err := c.Write([]byte(msg)); err != nil {
				errs <- err
				return
			}
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				errs <- err
				return
			}
			if string(buf) != fmt.Sprintf("HELLO-%d", i) {
				errs <- fmt.Errorf("echo = %q", buf)
				return
			}
			c.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("server did not finish")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.served
}

func TestNondetEchoServer(t *testing.T) {
	served := runEcho(t, func(net *simnet.Network, inst Instance) (func(), func()) {
		p := NewNondetProc(net, "server", nil)
		p.Start(inst)
		return p.Kill, p.Wait
	})
	if served != 8 {
		t.Fatalf("served = %d", served)
	}
}

func TestParrotEchoServer(t *testing.T) {
	served := runEcho(t, func(net *simnet.Network, inst Instance) (func(), func()) {
		p := NewParrotProc(net, "server", nil)
		p.Start(inst)
		return p.Kill, func() {
			p.WaitMain()
			p.Kill()
			p.Wait()
		}
	})
	if served != 8 {
		t.Fatalf("served = %d", served)
	}
}

func TestParrotSoftBarrierViaT(t *testing.T) {
	net := simnet.New(simnet.Options{})
	p := NewParrotProc(net, "server", nil)
	released := make(chan int, 3)
	done := make(chan struct{})
	p.Start(FuncInstance{Main: func(t T) {
		var hs []Handle
		for i := 0; i < 3; i++ {
			i := i
			hs = append(hs, t.Spawn("w", func(wt T) {
				b := wt.SoftBarrier("compute", 3, 1_000_000)
				b.Arrive(wt)
				released <- i
			}))
		}
		for _, h := range hs {
			t.Join(h)
		}
		close(done)
	}})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("barrier program hung")
	}
	if len(released) != 3 {
		t.Fatalf("released %d, want 3", len(released))
	}
	p.Kill()
	p.Wait()
}

func TestDetRandStability(t *testing.T) {
	if DetRand(42) != DetRand(42) {
		t.Fatal("DetRand not deterministic")
	}
	if DetRand(1) == DetRand(2) {
		t.Fatal("DetRand suspiciously collides")
	}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		v := DetRandN(uint64(i), 10)
		if v < 0 || v >= 10 {
			t.Fatalf("DetRandN out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 5 {
		t.Fatal("DetRandN poorly distributed")
	}
	if DetRandN(7, 0) != 0 {
		t.Fatal("DetRandN(_, 0) != 0")
	}
}

func TestBurnWorkScales(t *testing.T) {
	small := time.Now()
	BurnWork(10)
	dSmall := time.Since(small)
	big := time.Now()
	BurnWork(10000)
	dBig := time.Since(big)
	if dBig < dSmall {
		t.Fatalf("BurnWork(10000)=%v faster than BurnWork(10)=%v", dBig, dSmall)
	}
}

func TestFuncInstance(t *testing.T) {
	ran := false
	fi := FuncInstance{Main: func(T) { ran = true }}
	fi.Run(nil)
	if !ran {
		t.Fatal("FuncInstance did not run")
	}
	if b, err := fi.Snapshot(); err != nil || b != nil {
		t.Fatal("stateless snapshot broken")
	}
	if err := fi.Restore(nil); err != nil {
		t.Fatal("stateless restore broken")
	}
}

// TestEffectiveLanesClamp pins the lane-count resolution rules: no
// declared conflict structure forces one lane, MaxUseful clamps a larger
// request (the 8-lane MySQL regression in BENCH_lanes.json is the
// motivating case), and zero MaxUseful means unlimited.
func TestEffectiveLanesClamp(t *testing.T) {
	undeclared := &Program{Name: "plain"}
	if got := undeclared.EffectiveLanes(8); got != 1 {
		t.Fatalf("undeclared conflict: EffectiveLanes(8) = %d, want 1", got)
	}
	clamped := &Program{Name: "mysqld", Conflict: &ConflictMap{MaxUseful: 2}}
	cases := map[int]int{8: 2, 2: 2, 1: 1, 0: 1, -3: 1}
	for req, want := range cases {
		if got := clamped.EffectiveLanes(req); got != want {
			t.Errorf("MaxUseful 2: EffectiveLanes(%d) = %d, want %d", req, got, want)
		}
	}
	unlimited := &Program{Name: "httpd", Conflict: &ConflictMap{}}
	if got := unlimited.EffectiveLanes(8); got != 8 {
		t.Fatalf("MaxUseful 0: EffectiveLanes(8) = %d, want 8", got)
	}
}

// TestConnClass pins the one partition function: every class is in range,
// a connection keeps its class however often it is asked (so all of its
// socket calls order in one group and run on one lane), and the connection
// ids one proxy hands out in sequence spread over every class.
func TestConnClass(t *testing.T) {
	var p Program
	for n := 1; n <= 8; n++ {
		used := make([]bool, n)
		for replica := uint64(1); replica <= 5; replica++ {
			for k := uint64(1); k <= 64; k++ {
				id := replica<<48 | k // the proxy's connection-id shape
				c := p.ConnClass(id, n)
				if c < 0 || c >= n {
					t.Fatalf("ConnClass(%#x, %d) = %d, out of range", id, n, c)
				}
				if again := p.ConnClass(id, n); again != c {
					t.Fatalf("ConnClass(%#x, %d) = %d then %d", id, n, c, again)
				}
				used[c] = true
			}
		}
		for c, ok := range used {
			if !ok {
				t.Errorf("n=%d: class %d never assigned", n, c)
			}
		}
	}
}
