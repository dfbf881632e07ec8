// Command dtnode hosts shards of a distributed datatamer cluster and
// serves them over the binary wire protocol:
//
//	dtnode -config cluster.json -name node-a
//
// The node looks itself up by -name in the membership file, creates one
// collection per hosted (namespace, shard) pair, and serves requests from
// the coordinator (dtserver -cluster). -addr overrides the configured
// listen address — ":0" picks an ephemeral port, written to -port-file so
// test harnesses can generate the final cluster.json after the fact.
//
// With -follow the node runs as a read replica: it serves reads only and
// continuously pulls from -primary its shards' images above the last id it
// holds (index layout and the documents it lacks), so coordinators
// can spread snapshot reads across replicas while a generation fence
// preserves read-your-writes:
//
//	dtnode -config cluster.json -name node-a-replica -follow -primary 127.0.0.1:7101
//
// -healthz serves GET /healthz (JSON readiness: node name, role,
// per-shard generation / WAL lag / checkpoint age, and on replicas the
// pull-loop health plus the circuit-breaker state toward the primary —
// a degraded replica answers 503) and GET /metrics (Prometheus text
// format: wire op latency and failures, replication pulls, retry and
// breaker counters) on a separate HTTP listener; -pprof additionally
// mounts net/http/pprof there.
//
// With -data-dir the node is durable: every mutation — a write on a
// primary, what a pull applies on a replica — is appended to a per-shard
// CRC-framed WAL before it is acknowledged, a
// clean shutdown (SIGINT/SIGTERM) checkpoints each shard (one snapshot
// file — documents, extent size and index layout — committed by one
// rename, WAL truncated: the store.Log protocol the live ingester shares),
// and startup recovers the last checkpoint plus the WAL tail — so a
// restarted node resumes at the generation it last acknowledged and the
// coordinator reconnects without re-ingesting. The node compacts a shard's
// WAL only at its own checkpoints: the clean-shutdown one, and the one
// startup recovery takes when the WAL held events past the last
// checkpoint. A coordinator never asks a node to checkpoint.
//
//	dtnode -config cluster.json -name node-a -data-dir /var/lib/dtnode-a
//
// Without -data-dir the node persists nothing: its documents live only as
// long as the process.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtnode: ")
	configPath := flag.String("config", "cluster.json", "cluster membership file")
	name := flag.String("name", "", "node name to assume from the membership file")
	addr := flag.String("addr", "", "listen address override (\":0\" for an ephemeral port)")
	portFile := flag.String("port-file", "", "write the bound address to this file once listening")
	follow := flag.Bool("follow", false, "run as a read-only replica pulling from -primary")
	primary := flag.String("primary", "", "replica mode: primary node address to pull from")
	healthz := flag.String("healthz", "", "serve GET /healthz and /metrics on this address")
	pprof := flag.Bool("pprof", false, "also mount net/http/pprof on the -healthz listener")
	pullEvery := flag.Duration("pull-interval", 50*time.Millisecond, "replica mode: replication pull interval")
	dataDir := flag.String("data-dir", "", "persist shards here (WAL + checkpoint); empty runs memory-only")
	flag.Parse()

	cfg, err := cluster.LoadConfig(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	var spec *cluster.NodeSpec
	for i := range cfg.Nodes {
		if cfg.Nodes[i].Name == *name {
			spec = &cfg.Nodes[i]
		}
	}
	if spec == nil {
		names := make([]string, len(cfg.Nodes))
		for i, n := range cfg.Nodes {
			names[i] = n.Name
		}
		log.Fatalf("node %q not in %s (members: %s)", *name, *configPath, strings.Join(names, ", "))
	}

	node := cluster.BuildNode(cfg, spec, *follow)
	if *dataDir != "" {
		// Recovery must precede serving (and the first replication pull):
		// checkpoint snapshot + WAL tail restore each shard to the
		// generation it last acknowledged.
		if err := node.EnableDurability(*dataDir); err != nil {
			log.Fatal(err)
		}
		log.Printf("recovered shards from %s", *dataDir)
	}
	var fol *cluster.Follower
	if *follow {
		if *primary == "" {
			log.Fatal("-follow requires -primary")
		}
		// The pull transport gets the same resilience wrapper coordinators
		// use: retries smooth transient primary hiccups, and the breaker
		// state shows up in /healthz so a partitioned replica is visibly
		// degraded rather than silently stale.
		breaker := cluster.NewBreaker("primary", 0, 0)
		tr := cluster.NewResilientTransport("primary", cluster.Dial(*primary, 0),
			cluster.DefaultRetryPolicy(), breaker, 0)
		fol = cluster.NewFollower(node, tr, *pullEvery)
		fol.Start()
		node.SetReplicaProbe(func() cluster.ReplicaStatus {
			st := fol.Status()
			st.Breaker = breaker.StateName()
			return st
		})
	}

	listenAddr := spec.Addr
	if *addr != "" {
		listenAddr = *addr
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		log.Fatal(err)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *healthz != "" {
		// The ops listener carries health, the process-wide metrics (wire
		// op counts and latency, replication pulls), and optionally pprof.
		mux := http.NewServeMux()
		mux.Handle("/healthz", node.HealthHandler())
		mux.Handle("GET /metrics", obs.Default().Handler())
		if *pprof {
			obs.RegisterPprof(mux)
		}
		hs := &http.Server{Addr: *healthz, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("healthz: %v", err)
			}
		}()
	}

	role := "primary"
	if *follow {
		role = "replica of " + *primary
	}
	log.Printf("%s serving %d shards on %s (%s)", spec.Name, len(node.ShardKeys()), ln.Addr(), role)

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- node.Serve(ln) }()
	select {
	case err := <-errCh:
		if err != nil {
			log.Fatal(err)
		}
	case <-sigCtx.Done():
		log.Printf("shutting down")
		ln.Close()
		if fol != nil {
			// Stop pulling before the shutdown checkpoint so the persisted
			// state is quiescent.
			fol.Stop()
		}
		if *dataDir != "" {
			if err := node.Checkpoint(); err != nil {
				log.Printf("shutdown checkpoint: %v", err)
			} else {
				log.Printf("checkpointed shards to %s", *dataDir)
			}
		}
	}
	if err := node.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}
