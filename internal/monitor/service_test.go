package monitor

import (
	"net"
	"testing"
	"time"

	"samrpart/internal/capacity"
	"samrpart/internal/cluster"
)

func startService(t *testing.T) (addr string, clus *cluster.Cluster) {
	t.Helper()
	clus = newTestCluster(t)
	clus.Node(0).AddLoad(cluster.Step{CPU: 0.6, MemMB: 100})
	mon := NewAdaptiveMonitor(ClusterProber{C: clus})
	svc := NewService(mon, capacity.EqualWeights(), clus.Now)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), clus
}

func TestServiceQuery(t *testing.T) {
	addr, _ := startService(t)
	resp, err := Query(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Measurements) != 4 || len(resp.Capacities) != 4 {
		t.Fatalf("response shape: %d measurements, %d capacities",
			len(resp.Measurements), len(resp.Capacities))
	}
	sum := 0.0
	for _, c := range resp.Capacities {
		sum += c
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("capacities sum to %g", sum)
	}
	// The loaded node 0 reports the lowest capacity.
	for k := 1; k < 4; k++ {
		if resp.Capacities[0] >= resp.Capacities[k] {
			t.Errorf("loaded node not penalized: %v", resp.Capacities)
		}
	}
}

func TestServiceRepeatedQueriesTrackLoad(t *testing.T) {
	addr, clus := startService(t)
	first, err := Query(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clus.Node(0).ClearLoad()
	clus.Advance(1)
	second, err := Query(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if second.Capacities[0] <= first.Capacities[0] {
		t.Errorf("capacity did not recover after load cleared: %.3f -> %.3f",
			first.Capacities[0], second.Capacities[0])
	}
}

func TestServiceUnknownCommand(t *testing.T) {
	addr, _ := startService(t)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("BOGUS\n"))
	buf := make([]byte, 256)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); !contains(got, "unknown command") {
		t.Errorf("response = %q", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestQueryErrors(t *testing.T) {
	if _, err := Query("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("query to dead address succeeded")
	}
}
