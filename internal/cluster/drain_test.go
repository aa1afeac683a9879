package cluster

import (
	"net"
	"net/rpc"
	"testing"
	"time"

	"parmonc/internal/faultnet"
	"parmonc/internal/stat"
)

// TestCloseDrainsInFlightPush is the regression test for the shutdown
// race: a Push that the coordinator has already started serving must
// complete with a real reply even when Close arrives mid-call, instead
// of dying with a spurious transport error and dropping the subtotal.
// Injected per-byte latency on the server side of the connection keeps
// the RPC in flight long enough for Close to land inside it.
func TestCloseDrainsInFlightPush(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinatorOn(testSpec(1000), CoordinatorConfig{
		WorkDir:      t.TempDir(),
		DrainTimeout: 5 * time.Second,
	}, faultnet.Wrap(raw, faultnet.FaultFirst(faultnet.ConnPlan{Latency: 30 * time.Millisecond})))
	if err != nil {
		t.Fatal(err)
	}

	client, err := rpc.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var reg RegisterReply
	if err := client.Call(ServiceName+".Register", RegisterArgs{}, &reg); err != nil {
		t.Fatal(err)
	}

	l := acquireLease(t, coord, reg)

	acc := stat.New(1, 1)
	if err := acc.Add([]float64{1}); err != nil {
		t.Fatal(err)
	}
	var pr PushReply
	call := client.Go(ServiceName+".Push",
		PushArgs{Worker: reg.Worker, Epoch: reg.Epoch, Seq: 1, Lease: l.ID, Done: 1, Snap: acc.Snapshot()}, &pr, nil)

	// Give the latency-delayed request time to be mid-service, then
	// shut down while it is in flight.
	time.Sleep(10 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- coord.Close() }()

	select {
	case <-call.Done:
	case <-time.After(10 * time.Second):
		t.Fatal("push never completed")
	}
	if call.Error != nil {
		t.Fatalf("push racing Close failed: %v (drain must let it finish)", call.Error)
	}
	if n := coord.N(); n != 1 {
		t.Fatalf("N = %d, want 1 (the drained push must be merged)", n)
	}

	// Close returns once the client side lets go of the connection.
	client.Close()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
}

// TestCloseForceClosesWedgedConn: drain must not hang forever on a
// connection that will never finish — after DrainTimeout the straggler
// is force-closed and Close returns.
func TestCloseForceClosesWedgedConn(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinatorOn(testSpec(1000), CoordinatorConfig{
		WorkDir:      t.TempDir(),
		DrainTimeout: 100 * time.Millisecond,
	}, faultnet.Wrap(raw, faultnet.None))
	if err != nil {
		t.Fatal(err)
	}

	// A worker that connects and then goes silent: its ServeConn blocks
	// in a read forever unless Close force-closes it.
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	done := make(chan error, 1)
	go func() { done <- coord.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a wedged connection")
	}
}
