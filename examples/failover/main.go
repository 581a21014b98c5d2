// Command failover demonstrates CRANE's fault tolerance (§7.6): a
// three-replica cluster serves a replicated key-value store, the primary
// machine is killed, the remaining replicas elect a new leader with the
// paper's three-step election, and clients keep reading the state written
// before the failure. A backup checkpoint then rebuilds the failed
// replica.
//
//	go run ./examples/failover
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
	"crane/internal/checkpoint"
	"crane/internal/crane"
	"crane/internal/papi"
	"crane/internal/simnet"
)

// kv is the replicated store (listener + worker pool, SET/GET protocol).
type kv struct {
	workers int
	mu      sync.Mutex
	data    map[string]string
}

func (s *kv) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(s.data)
	return buf.Bytes(), err
}

func (s *kv) Restore(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return gob.NewDecoder(bytes.NewReader(b)).Decode(&s.data)
}

func (s *kv) Run(t papi.T) {
	l, err := t.Listen(9100)
	if err != nil {
		return
	}
	var (
		wl      []papi.Conn
		wlMu    = t.NewMutex()
		wlCv    = t.NewCond()
		stateMu = t.NewMutex()
	)
	for i := 0; i < s.workers; i++ {
		t.Spawn(fmt.Sprintf("w%d", i), func(wt papi.T) {
			for !wt.Killed() {
				wlMu.Lock(wt)
				for len(wl) == 0 {
					wlCv.Wait(wt, wlMu)
				}
				c := wl[0]
				wl = wl[1:]
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
		wl = append(wl, c)
		wlMu.Unlock(t)
		wlCv.Signal(t)
	}
}

func (s *kv) serve(t papi.T, c papi.Conn, stateMu papi.Mutex) {
	defer c.Close(t)
	buf := make([]byte, 256)
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
		parts := strings.SplitN(strings.TrimSpace(string(acc[:i])), " ", 3)
		acc = acc[i+1:]
		var resp string
		stateMu.Lock(t)
		s.mu.Lock()
		switch parts[0] {
		case "SET":
			if len(parts) == 3 {
				s.data[parts[1]] = parts[2]
				resp = "OK\n"
			} else {
				resp = "ERR\n"
			}
		case "GET":
			if v, ok := s.data[parts[1]]; ok {
				resp = "VALUE " + v + "\n"
			} else {
				resp = "NONE\n"
			}
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
		Name:  "kv",
		Ports: []int{9100},
		New: func(fs *cfs.FS) papi.Instance {
			return &kv{workers: 8, data: make(map[string]string)}
		},
	}
	cluster, err := crane.StartCluster(crane.Config{
		Mode:       crane.ModeCrane,
		Replicas:   3,
		NetOptions: simnet.Options{Latency: 50 * time.Microsecond},
		// Scaled-down failure detection (the paper uses 1s heartbeats and
		// a 3s election timeout).
		HeartbeatInterval: 20 * time.Millisecond,
		ElectionTimeout:   100 * time.Millisecond,
	}, prog)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	fmt.Println("writing 5 keys to the primary")
	for i := 0; i < 5; i++ {
		req := fmt.Sprintf("SET key%d value%d\n", i, i)
		if _, err := clients.Request(cluster.Dial, fmt.Sprintf("writer%d:1", i), 9100, []byte(req), clients.UntilLine); err != nil {
			log.Fatal(err)
		}
	}
	if err := cluster.WaitQuiescent(10 * time.Second); err != nil {
		log.Fatal(err)
	}

	// Checkpoint a backup before the failure (§5.2: every minute on one
	// backup; here on demand).
	cp := checkpoint.New(checkpoint.Options{Backoff: time.Millisecond})
	ck, tm, err := cluster.CheckpointBackup(cp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backup checkpoint at global index %d (process %.2fms, fs %.2fms, %dB patch)\n",
		ck.Index, float64(tm.CheckpointProcess.Microseconds())/1000,
		float64(tm.CheckpointFS.Microseconds())/1000, tm.FSPatchBytes)

	old, err := cluster.FailPrimary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("killed primary replica%d; waiting for election...\n", old)
	start := time.Now()
	p, err := cluster.Primary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica%d elected primary after %v (election phase %.2fms)\n",
		p.ID(), time.Since(start).Round(time.Millisecond), p.GroupNode(0).LastElectionMillis())

	// The clients keep the dialer they wrote with: cluster.Dial follows
	// the leader to the new primary, and clients.Request reconnects when a
	// replica closes the connection unanswered (a backup, or a primary that
	// lost its view before it admitted the request).
	for i := 0; i < 5; i++ {
		req := fmt.Sprintf("GET key%d\n", i)
		resp, err := clients.Request(cluster.Dial, fmt.Sprintf("reader%d:1", i), 9100, []byte(req), clients.UntilLine)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  GET key%d -> %s", i, resp)
	}

	// Rebuild the failed replica from the shipped checkpoint.
	wire, err := ck.Encode()
	if err != nil {
		log.Fatal(err)
	}
	shipped, err := checkpoint.Decode(wire)
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.RestoreReplica(old, shipped); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica%d rebuilt from checkpoint (index %d) and re-joined as a backup\n",
		old, shipped.Index)
	time.Sleep(200 * time.Millisecond)
	if cluster.Replica(old).IsPrimary() {
		fmt.Println("unexpected: restored replica claims primaryship")
	} else {
		fmt.Println("restored replica correctly follows the new primary")
	}
}
