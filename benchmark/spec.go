package main

import (
	"time"

	"crane/internal/apps/httpd"
	"crane/internal/apps/mongoose"
	"crane/internal/apps/mysqld"
	"crane/internal/crane"
	"crane/internal/papi"
	"crane/internal/simnet"
)

// The common deployment, restated from internal/bench.ClusterConfig so the
// yardstick does not move when that package does. These delays are
// injected, not measured: with instant delivery latency would be processor
// time only.
const (
	replicas        = 3
	clientLatency   = 30 * time.Microsecond
	clientJitter    = 80 * time.Microsecond
	hubLatency      = 20 * time.Microsecond
	hubJitter       = 50 * time.Microsecond
	heartbeat       = 30 * time.Millisecond
	wTimeout        = 100 * time.Microsecond
	nClock          = 1000
	traceCapacity   = 1 << 18
	slots           = 2 // <= every server's worker pool: the DESIGN.md liveness wedge cannot trigger
	requestTimeout  = 2 * time.Second
	mysqlRows       = 200
	mongooseBodyLen = 4096
)

// workload is one traffic mix on one deployment shape.
type workload struct {
	name string
	// program builds the server; port is where it listens.
	program func() papi.Program
	port    int
	// newStream builds the seeded request generator.
	newStream func(seed int64) stream
	// Deployment shape beyond the common one.
	lanes, groups    int
	speculation, wal bool // wal appends without fsync: see README.md, "Why the third workload does not fsync"
	// rate is the open-loop arrival rate in req/s, about 60% of the
	// seed's closed-loop capacity at 2 slots.
	rate float64
	// sloMs is the latency limit client.slo_miss_pct counts against.
	sloMs float64
	// failover selects the kill-trial shape over the steady-state phases.
	failover bool
}

func workloads() []workload {
	mysql := func() papi.Program {
		cfg := mysqld.DefaultConfig()
		cfg.Workers = 10
		cfg.WorkPerQuery = 4000 // ~1.2ms per statement
		return mysqld.Program(cfg)
	}
	return []workload{
		{
			name: "mysql_oltp", program: mysql, port: 3306,
			newStream: func(seed int64) stream { return newMySQLStream(seed, 20) },
			lanes:     1, groups: 1,
			rate: 200, sloMs: 25,
		},
		{
			name: "apache_php", port: 8080,
			program: func() papi.Program {
				cfg := httpd.DefaultConfig()
				cfg.Workers = 8
				cfg.PHPChunks = 8
				cfg.PHPChunkWork = 2500 // ~6ms per page
				cfg.CacheEnabled = false
				cfg.WithDate = false
				return httpd.Program(cfg)
			},
			newStream: func(int64) stream { return &apacheStream{} },
			lanes:     2, groups: 1,
			rate: 70, sloMs: 75,
		},
		{
			name: "mongoose_put_wal", port: 8081,
			program: func() papi.Program {
				cfg := mongoose.DefaultConfig()
				cfg.Workers = 6
				cfg.ScriptChunks = mongooseScriptChunks
				cfg.ScriptChunkWork = 2000 // ~3.6ms per script page
				cfg.WithDate = false
				return mongoose.Program(cfg)
			},
			newStream: func(seed int64) stream { return newMongooseStream(seed) },
			lanes:     1, groups: 1,
			speculation: true, wal: true,
			rate: 175, sloMs: 25,
		},
		{
			name: "mysql_failover", program: mysql, port: 3306,
			newStream: func(seed int64) stream { return newMySQLStream(seed, 100) },
			lanes:     1, groups: 2,
			wal:  true,
			rate: 100, sloMs: 25,
			failover: true,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the crane.Config for w under mode. traced turns the lifecycle
// tracer on; walDir is ignored unless w persists.
func (w workload) config(mode crane.Mode, seed int64, traced bool, walDir string) crane.Config {
	cfg := crane.Config{
		Mode:     mode,
		Replicas: replicas,
		Lanes:    w.lanes,
		Groups:   w.groups,
		Wtimeout: wTimeout,
		Nclock:   nClock,
		NetOptions: simnet.Options{
			Latency: clientLatency,
			Jitter:  clientJitter,
			Seed:    seed,
		},
		HubLatency:        hubLatency,
		HubJitter:         hubJitter,
		Seed:              seed,
		HeartbeatInterval: heartbeat,
		Speculation:       w.speculation,
	}
	if mode != crane.ModeCrane {
		// The controls isolate one layer each on the plain pipeline; and
		// without time bubbles (paxos-only) the cross-group merge would
		// never pass an idle group.
		cfg.Groups = 1
		cfg.Speculation = false
	}
	if w.wal {
		cfg.WALDir = walDir
	}
	if traced {
		cfg.TraceCapacity = traceCapacity
	}
	return cfg
}
