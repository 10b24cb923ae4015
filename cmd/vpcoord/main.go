// Command vpcoord runs the cluster coordinator: a front end that turns N
// vpserve worker nodes into one profiling service with consistent-hash
// routing, scatter-gather threshold sweeps, and node failover
// (DESIGN.md §12).
//
// Usage:
//
//	vpcoord -addr :9090
//	vpserve -addr :8081 -coordinator http://localhost:9090 &
//	vpserve -addr :8082 -coordinator http://localhost:9090 &
//	curl -X POST localhost:9090/v1/evaluate \
//	    -d '{"bench":"compress","thresholds":[90,80,70,60,50]}'
//	curl localhost:9090/metrics
//
// The coordinator serves the same /v1 API as a single vpserve node, so
// clients move between them by changing a URL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/faults"
)

// version is stamped by release builds via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	var (
		addr      = flag.String("addr", ":9090", "listen address")
		hbTimeout = flag.Duration("heartbeat-timeout", 10*time.Second, "expire a node that has not heartbeated for this long")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request timeout, re-dispatches included")
		retries   = flag.Int("node-retries", 1, "HTTP retries per node before failing over")
		stateDir  = flag.String("state-dir", "", "persist the completed-shard-key set (worker restart reconciliation) under this directory")
		faultSpec = flag.String("faults", "", "arm a fault-injection plan, e.g. 'cluster.dispatch:error:n=1' (also via VP_FAULTS)")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.Format("vpcoord", version))
		return
	}

	if *faultSpec == "" {
		*faultSpec = os.Getenv("VP_FAULTS")
	}
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		if err != nil {
			log.Fatalf("vpcoord: -faults: %v", err)
		}
		faults.Enable(plan)
		log.Printf("vpcoord: fault injection ARMED: %s", *faultSpec)
	}

	co, err := cluster.Open(cluster.Config{
		Version:          buildinfo.Resolve(version),
		HeartbeatTimeout: *hbTimeout,
		RequestTimeout:   *timeout,
		StateDir:         *stateDir,
		Client:           client.Config{MaxRetries: *retries},
	})
	if err != nil {
		log.Fatalf("vpcoord: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("vpcoord: %v", err)
	}
	httpSrv := &http.Server{Handler: co.Handler()}
	log.Printf("vpcoord: listening on %s (version %s)", ln.Addr(), buildinfo.Resolve(version))

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("vpcoord: %s received, shutting down", sig)
	case err := <-errc:
		log.Fatalf("vpcoord: serve: %v", err)
	}

	// The coordinator holds no job state of its own — in-flight requests
	// finish, workers keep their caches, and a restarted coordinator
	// re-learns the fleet from registrations.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("vpcoord: http shutdown: %v", err)
	}
	co.Close()
	fmt.Println("vpcoord: stopped")
}
