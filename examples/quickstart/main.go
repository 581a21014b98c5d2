// Command quickstart is the smallest end-to-end CRANE deployment: a tiny
// multithreaded counter server written against the papi interface is
// replicated across three replicas with full CRANE (Paxos + DMT + time
// bubbling), a few clients talk to the primary, and the replicas' network
// output logs are diffed to show they stayed in sync.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"crane/internal/apps/clients"
	"crane/internal/cfs"
	"crane/internal/crane"
	"crane/internal/papi"
	"crane/internal/simnet"
	"crane/internal/trace"
)

// counter is a multithreaded network counter: "INC", "GET" line protocol,
// a listener thread, and a worker pool synchronized with a mutex/cond
// worklist — the same shape as the paper's Fig. 2 example.
type counter struct {
	workers int
	mu      sync.Mutex
	value   int
}

func (s *counter) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(s.value)
	return buf.Bytes(), err
}

func (s *counter) Restore(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return gob.NewDecoder(bytes.NewReader(b)).Decode(&s.value)
}

func (s *counter) Run(t papi.T) {
	l, err := t.Listen(9000)
	if err != nil {
		return
	}
	var (
		worklist []papi.Conn
		wlMu     = t.NewMutex()
		wlCv     = t.NewCond()
		stateMu  = t.NewMutex()
	)
	for i := 0; i < s.workers; i++ {
		t.Spawn(fmt.Sprintf("worker%d", i), func(wt papi.T) {
			for !wt.Killed() {
				wlMu.Lock(wt)
				for len(worklist) == 0 {
					wlCv.Wait(wt, wlMu)
				}
				c := worklist[0]
				worklist = worklist[1:]
				wlMu.Unlock(wt)
				s.serve(wt, c, stateMu)
			}
		})
	}
	for !t.Killed() {
		c, err := l.Accept(t)
		if err != nil {
			return
		}
		wlMu.Lock(t)
		worklist = append(worklist, c)
		wlMu.Unlock(t)
		wlCv.Signal(t)
	}
}

func (s *counter) serve(t papi.T, c papi.Conn, stateMu papi.Mutex) {
	defer c.Close(t)
	buf := make([]byte, 128)
	var acc []byte
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
		cmd := strings.TrimSpace(string(acc[:i]))
		acc = acc[i+1:]
		var resp string
		stateMu.Lock(t)
		s.mu.Lock()
		switch cmd {
		case "INC":
			s.value++
			resp = fmt.Sprintf("OK %d\n", s.value)
		case "GET":
			resp = fmt.Sprintf("VALUE %d\n", s.value)
		default:
			resp = "ERR\n"
		}
		s.mu.Unlock()
		stateMu.Unlock(t)
		if _, err := c.Send(t, []byte(resp)); err != nil {
			return
		}
	}
}

func main() {
	prog := papi.Program{
		Name:  "counter",
		Ports: []int{9000},
		New: func(fs *cfs.FS) papi.Instance {
			return &counter{workers: 8}
		},
	}
	cluster, err := crane.StartCluster(crane.Config{
		Mode:     crane.ModeCrane,
		Replicas: 3,
		NetOptions: simnet.Options{
			Latency: 50 * time.Microsecond,
			Jitter:  100 * time.Microsecond,
		},
	}, prog)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	fmt.Println("three-replica CRANE cluster up; sending 10 INCs and a GET")
	for i := 0; i < 10; i++ {
		resp, err := clients.Request(cluster.Dial, fmt.Sprintf("client%d:1", i), 9000, []byte("INC\n"), clients.UntilLine)
		if err != nil {
			log.Fatalf("INC: %v", err)
		}
		fmt.Printf("  INC -> %s", resp)
	}
	resp, err := clients.Request(cluster.Dial, "reader:1", 9000, []byte("GET\n"), clients.UntilLine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  GET -> %s", resp)

	if err := cluster.WaitQuiescent(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	logs := cluster.OutputLogs()
	if divs := trace.DiffAll(logs); len(divs) == 0 {
		fmt.Printf("all %d replicas produced identical network outputs (%d each)\n",
			len(logs), logs[0].Len())
	} else {
		fmt.Println("DIVERGENCE:", divs)
	}
	st := cluster.SeqStats()
	fmt.Printf("consensus requests: %d client socket calls, %d time bubbles (ratio %.2f%%)\n",
		st.ClientCalls, st.Bubbles, 100*st.BubbleRatio())
}
