package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/dterr"
	"repro/internal/store"
)

// TestReadiness covers the readiness document on a durable primary:
// per-shard generation, WAL lag against the last checkpoint, and the
// lag reset a checkpoint performs.
func TestReadiness(t *testing.T) {
	node := NewNode("rd")
	hostAll(node, 1)
	if err := node.EnableDurability(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	shard := NewRemoteShard(NSEntities, 0, Loopback{Node: node}, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := shard.Insert(ctx, store.NewDoc().Set("name", store.Str("x"))); err != nil {
			t.Fatal(err)
		}
	}

	rd := node.Readiness()
	if !rd.Ready || rd.Status != "ok" || rd.Role != "primary" {
		t.Fatalf("readiness = %+v, want ready ok primary", rd)
	}
	key := ShardKey(NSEntities, 0)
	sh, ok := rd.Shards[key]
	if !ok {
		t.Fatalf("readiness missing shard %s: %+v", key, rd.Shards)
	}
	if sh.Gen != 3 || !sh.Durable {
		t.Fatalf("shard health = %+v, want gen 3 durable", sh)
	}
	if sh.WALLag != 3 {
		t.Fatalf("WAL lag = %d, want 3 (three writes past the startup checkpoint)", sh.WALLag)
	}
	if sh.CheckpointAgeSec < 0 || sh.CheckpointAgeSec > 60 {
		t.Fatalf("checkpoint age = %v, want a few seconds at most", sh.CheckpointAgeSec)
	}

	if err := node.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if sh = node.Readiness().Shards[key]; sh.WALLag != 0 {
		t.Fatalf("WAL lag after checkpoint = %d, want 0", sh.WALLag)
	}
}

// TestHealthHandlerDegradedReplica: an unhealthy replica probe flips the
// document to degraded and the endpoint to 503, with the breaker state
// visible in the body.
func TestHealthHandlerDegradedReplica(t *testing.T) {
	node := newFollowerNode("hzf")
	hostAll(node, 1)
	node.SetReplicaProbe(func() ReplicaStatus {
		return ReplicaStatus{Healthy: false, LastError: "pull: connection refused", Breaker: "open"}
	})
	rec := httptest.NewRecorder()
	node.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded replica healthz = %d, want 503", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"status":"degraded"`, `"ready":false`, `"role":"follower"`, `"breaker":"open"`} {
		if !strings.Contains(body, want) {
			t.Errorf("healthz body missing %s: %s", want, body)
		}
	}

	// The probe healing flips it back without re-registration.
	node.SetReplicaProbe(func() ReplicaStatus {
		return ReplicaStatus{Healthy: true, LastPullAgeSec: 0.01, Breaker: "closed"}
	})
	rec = httptest.NewRecorder()
	node.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healed replica healthz = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestFollowerStatus tracks the pull loop's own health reporting.
func TestFollowerStatus(t *testing.T) {
	primary := NewNode("p")
	hostAll(primary, 1)
	follower := newFollowerNode("f")
	hostAll(follower, 1)

	fol := NewFollower(follower, Loopback{Node: primary}, time.Hour)
	if st := fol.Status(); st.Healthy {
		t.Fatalf("status healthy before any pull: %+v", st)
	}
	if err := fol.PullOnce(); err != nil {
		t.Fatal(err)
	}
	st := fol.Status()
	if !st.Healthy || st.LastError != "" {
		t.Fatalf("status after clean pull = %+v, want healthy", st)
	}

	// A dead primary flips the status unhealthy and surfaces the error.
	broken := NewFollower(follower, &scriptedTransport{fn: func(int, *Request) (*Response, error) {
		return nil, dterr.New(dterr.CodeBusy, "primary gone")
	}}, time.Hour)
	if err := broken.PullOnce(); err == nil {
		t.Fatal("pull from dead primary succeeded")
	}
	st = broken.Status()
	if st.Healthy || !strings.Contains(st.LastError, "primary gone") {
		t.Fatalf("status after failed pull = %+v, want unhealthy with error", st)
	}
}
