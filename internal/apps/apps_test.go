// Package apps_test exercises the five server programs directly on the
// baseline (nondet) runtime, independent of replication: protocol
// correctness, state snapshots, and workload clients.
package apps_test

import (
	"strings"
	"testing"
	"time"

	"crane/internal/apps/clamav"
	"crane/internal/apps/clients"
	"crane/internal/apps/httpd"
	"crane/internal/apps/mediatomb"
	"crane/internal/apps/mongoose"
	"crane/internal/apps/mysqld"
	"crane/internal/cfs"
	"crane/internal/papi"
	"crane/internal/simnet"
)

// startNondet deploys a program on a fresh network and returns a dialer.
func startNondet(t *testing.T, prog papi.Program) (clients.Dialer, papi.Instance, func()) {
	t.Helper()
	net := simnet.New(simnet.Options{Latency: 20 * time.Microsecond})
	fs := cfs.New()
	if prog.Install != nil {
		prog.Install(fs)
	}
	inst := prog.New(fs)
	proc := papi.NewNondetProc(net, "server", fs)
	proc.Start(inst)
	dial := func(client string, port int) (*simnet.Conn, error) {
		var c *simnet.Conn
		var err error
		for i := 0; i < 300; i++ {
			c, err = net.Dial(simnet.Addr(client), simnet.Addr("server:"+itoa(port)))
			if err == nil {
				return c, nil
			}
			time.Sleep(time.Millisecond)
		}
		return nil, err
	}
	return dial, inst, func() { proc.Kill() }
}

// waitServed waits until served() reaches want. A server counts a request
// only after its response write returns, which can be after the client has
// read the whole response, so one read right after the workload races it.
func waitServed(t *testing.T, served func() uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for served() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := served(); got < want {
		t.Fatalf("served = %d, want at least %d", got, want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestHTTPDStaticAndPHP(t *testing.T) {
	dial, _, stop := startNondet(t, httpd.Program(httpd.DefaultConfig()))
	defer stop()
	status, body, err := clients.Curl(dial, "c:1", 8080, "GET", "/index.html", nil)
	if err != nil || status != 200 {
		t.Fatalf("GET index: %d, %v", status, err)
	}
	if !strings.Contains(string(body), "It works!") {
		t.Fatalf("body = %q", body)
	}
	status, body, err = clients.Curl(dial, "c:2", 8080, "GET", "/page0.php", nil)
	if err != nil || status != 200 {
		t.Fatalf("GET php: %d, %v", status, err)
	}
	if !strings.Contains(string(body), "interpreted www/page0.php") {
		t.Fatalf("php body = %q", body)
	}
	// PHP output is deterministic: repeated fetches byte-identical.
	_, body2, err := clients.Curl(dial, "c:3", 8080, "GET", "/page0.php", nil)
	if err != nil || string(body) != string(body2) {
		t.Fatalf("php output not deterministic")
	}
}

func TestHTTPDPutGetDelete(t *testing.T) {
	dial, _, stop := startNondet(t, httpd.Program(httpd.DefaultConfig()))
	defer stop()
	status, _, err := clients.Curl(dial, "c:1", 8080, "PUT", "/a.php", []byte("<?php new page ?>"))
	if err != nil || status != 201 {
		t.Fatalf("PUT: %d, %v", status, err)
	}
	status, body, err := clients.Curl(dial, "c:2", 8080, "GET", "/a.php", nil)
	if err != nil || status != 200 {
		t.Fatalf("GET after PUT: %d, %v", status, err)
	}
	if !strings.Contains(string(body), "interpreted www/a.php") {
		t.Fatalf("body = %q", body)
	}
	status, _, err = clients.Curl(dial, "c:3", 8080, "DELETE", "/a.php", nil)
	if err != nil || status != 200 {
		t.Fatalf("DELETE: %d, %v", status, err)
	}
	status, _, _ = clients.Curl(dial, "c:4", 8080, "GET", "/a.php", nil)
	if status != 404 {
		t.Fatalf("GET after DELETE = %d, want 404", status)
	}
}

func TestHTTPDCacheHit(t *testing.T) {
	cfg := httpd.DefaultConfig()
	dial, _, stop := startNondet(t, httpd.Program(cfg))
	defer stop()
	clients.Curl(dial, "c:1", 8080, "GET", "/index.html", nil)
	status, _, err := clients.Curl(dial, "c:2", 8080, "GET", "/index.html", nil)
	if err != nil || status != 200 {
		t.Fatalf("second GET: %d, %v", status, err)
	}
	// PUT invalidates the cache.
	clients.Curl(dial, "c:3", 8080, "PUT", "/index.html", []byte("fresh"))
	_, body, _ := clients.Curl(dial, "c:4", 8080, "GET", "/index.html", nil)
	if string(body) != "fresh" {
		t.Fatalf("stale cache after PUT: %q", body)
	}
}

func TestHTTPDApacheBench(t *testing.T) {
	cfg := httpd.DefaultConfig()
	cfg.PHPChunks = 4
	cfg.PHPChunkWork = 20
	dial, inst, stop := startNondet(t, httpd.Program(cfg))
	defer stop()
	sum := clients.ApacheBench(dial, 8080, "/page1.php", 4, 24)
	if sum.Errors != 0 {
		t.Fatalf("ab errors: %+v", sum)
	}
	if sum.Median <= 0 {
		t.Fatalf("no latency measured: %+v", sum)
	}
	waitServed(t, inst.(*httpd.Server).Served, 24)
}

func TestMongooseServesAndHints(t *testing.T) {
	cfg := mongoose.DefaultConfig()
	cfg.UseHints = true
	cfg.ScriptChunks = 4
	cfg.ScriptChunkWork = 20
	dial, inst, stop := startNondet(t, mongoose.Program(cfg))
	defer stop()
	status, body, err := clients.Curl(dial, "c:1", 8081, "GET", "/app0.php", nil)
	if err != nil || status != 200 {
		t.Fatalf("GET: %d, %v", status, err)
	}
	if !strings.Contains(string(body), "mongoose script") {
		t.Fatalf("body = %q", body)
	}
	sum := clients.ApacheBench(dial, 8081, "/app1.php", 3, 12)
	if sum.Errors != 0 {
		t.Fatalf("ab on mongoose: %+v", sum)
	}
	waitServed(t, inst.(*mongoose.Server).Served, 13)
}

func TestClamAVScanFindsAndDeletes(t *testing.T) {
	dial, inst, stop := startNondet(t, clamav.Program(clamav.DefaultConfig()))
	defer stop()
	report, err := clients.ClamdScan(dial, "c:1", 3310, "src/clamav")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "malware0.bin: Eicar-Test-Signature FOUND") ||
		!strings.Contains(report, "malware1.bin: Eicar-Test-Signature FOUND") {
		t.Fatalf("report = %q", report)
	}
	if !strings.Contains(report, "scanned 38 infected 2") {
		t.Fatalf("summary = %q", report)
	}
	// Infected files were deleted: a rescan is clean.
	report2, err := clients.ClamdScan(dial, "c:2", 3310, "src/clamav")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(report2, "FOUND") {
		t.Fatalf("second scan still infected: %q", report2)
	}
	scanned, infected := inst.(*clamav.Server).Totals()
	if scanned != 38+36 || infected != 2 {
		t.Fatalf("totals = %d, %d", scanned, infected)
	}
}

func TestClamAVPingVersion(t *testing.T) {
	dial, _, stop := startNondet(t, clamav.Program(clamav.DefaultConfig()))
	defer stop()
	c, err := dial("c:1", 3310)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("PING\n"))
	buf := make([]byte, 64)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := c.Read(buf)
	if err != nil || strings.TrimSpace(string(buf[:n])) != "PONG" {
		t.Fatalf("PING -> %q, %v", buf[:n], err)
	}
}

func TestMediaTombTranscode(t *testing.T) {
	cfg := mediatomb.DefaultConfig()
	cfg.WorkPerSegment = 60
	dial, inst, stop := startNondet(t, mediatomb.Program(cfg))
	defer stop()
	resp, err := clients.Transcode(dial, "c:1", 50500, "video0.avi")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "DONE work/video0.mp4") {
		t.Fatalf("resp = %q", resp)
	}
	if inst.(*mediatomb.Server).Transcoded() != 1 {
		t.Fatal("transcode counter wrong")
	}
	// The output container landed in the working directory.
	srv := inst.(*mediatomb.Server)
	_ = srv
}

func TestMediaTombUnknownMedia(t *testing.T) {
	dial, _, stop := startNondet(t, mediatomb.Program(mediatomb.DefaultConfig()))
	defer stop()
	resp, err := clients.Transcode(dial, "c:1", 50500, "missing.avi")
	if err == nil && !strings.Contains(resp, "ERROR") {
		t.Fatalf("resp = %q", resp)
	}
}

func TestMySQLCrud(t *testing.T) {
	dial, inst, stop := startNondet(t, mysqld.Program(mysqld.DefaultConfig()))
	defer stop()
	if err := clients.SysBenchPrepare(dial, "c:0", 3306, 50); err != nil {
		t.Fatal(err)
	}
	if got := inst.(*mysqld.Server).TableRows("sbtest"); got != 50 {
		t.Fatalf("rows = %d", got)
	}
	sum := clients.SysBench(dial, 3306, 50, 4, 40)
	if sum.Errors != 0 {
		t.Fatalf("sysbench errors: %+v", sum)
	}
}

func TestMySQLStatements(t *testing.T) {
	dial, _, stop := startNondet(t, mysqld.Program(mysqld.DefaultConfig()))
	defer stop()
	c, err := dial("c:1", 3306)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exch := func(stmt string) string {
		if _, err := c.Write([]byte(stmt + "\n")); err != nil {
			t.Fatalf("write %q: %v", stmt, err)
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 4096)
		var acc []byte
		for !strings.Contains(string(acc), "\n") {
			n, err := c.Read(buf)
			acc = append(acc, buf[:n]...)
			if err != nil {
				t.Fatalf("read after %q: %v (got %q)", stmt, err, acc)
			}
		}
		return string(acc)
	}
	if got := exch("CREATE TABLE users (id name city)"); !strings.HasPrefix(got, "OK") {
		t.Fatalf("CREATE -> %q", got)
	}
	exch("INSERT INTO users VALUES 1 'alice' 'nyc'")
	exch("INSERT INTO users VALUES 2 'bob' 'sf'")
	exch("INSERT INTO users VALUES 3 'carol' 'nyc'")
	if got := exch("SELECT name FROM users WHERE id = 2"); !strings.Contains(got, "bob") {
		t.Fatalf("point SELECT -> %q", got)
	}
	if got := exch("SELECT * FROM users WHERE id BETWEEN 2 AND 3"); !strings.HasPrefix(got, "ROWS 2") {
		t.Fatalf("range SELECT -> %q", got)
	}
	if got := exch("UPDATE users SET city = 'la' WHERE name = 'bob'"); !strings.HasPrefix(got, "OK 1") {
		t.Fatalf("UPDATE -> %q", got)
	}
	if got := exch("SELECT city FROM users WHERE id = 2"); !strings.Contains(got, "la") {
		t.Fatalf("SELECT after UPDATE -> %q", got)
	}
	if got := exch("DELETE FROM users WHERE city = 'nyc'"); !strings.HasPrefix(got, "OK 2") {
		t.Fatalf("DELETE -> %q", got)
	}
	if got := exch("SELECT * FROM users"); !strings.HasPrefix(got, "ROWS 1") {
		t.Fatalf("final SELECT -> %q", got)
	}
	if got := exch("SELECT * FROM nosuch"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("missing table -> %q", got)
	}
	if got := exch("GARBAGE"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("garbage -> %q", got)
	}
}

func TestMySQLPersistence(t *testing.T) {
	prog := mysqld.Program(mysqld.DefaultConfig())
	net := simnet.New(simnet.Options{})
	fs := cfs.New()
	prog.Install(fs)
	inst := prog.New(fs)
	proc := papi.NewNondetProc(net, "server", fs)
	proc.Start(inst)
	defer proc.Kill()
	dial := func(client string, port int) (*simnet.Conn, error) {
		return net.Dial(simnet.Addr(client), simnet.Addr("server:3306"))
	}
	var err error
	for i := 0; i < 100; i++ {
		if err = clients.SysBenchPrepare(clients.Dialer(dial), "c:0", 3306, 20); err == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	if fs.Size("data/sbtest.ibd") == 0 {
		t.Fatal("table file not persisted")
	}
}

func TestSnapshotRestoreRoundTripApps(t *testing.T) {
	// Every app's Snapshot/Restore round-trips through a fresh instance.
	progs := []papi.Program{
		httpd.Program(httpd.DefaultConfig()),
		mongoose.Program(mongoose.DefaultConfig()),
		clamav.Program(clamav.DefaultConfig()),
		mediatomb.Program(mediatomb.DefaultConfig()),
		mysqld.Program(mysqld.DefaultConfig()),
	}
	for _, prog := range progs {
		fs := cfs.New()
		if prog.Install != nil {
			prog.Install(fs)
		}
		inst := prog.New(fs)
		snap, err := inst.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", prog.Name, err)
		}
		inst2 := prog.New(fs)
		if err := inst2.Restore(snap); err != nil {
			t.Fatalf("%s: restore: %v", prog.Name, err)
		}
	}
}
