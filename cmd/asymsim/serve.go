package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"asymfence"
	"asymfence/internal/buildinfo"
)

// shutdownGrace bounds how long the HTTP server may take to finish
// in-flight requests (a running pprof profile, say) once the run ends.
const shutdownGrace = 5 * time.Second

// progressRing is a concurrency-safe io.Writer that keeps the most
// recent complete progress lines for the /progress endpoint. Partial
// writes are buffered until their newline arrives, so concurrent
// writers that go through a line-atomic front end (the engine's
// narrator) never interleave mid-line here either.
type progressRing struct {
	mu      sync.Mutex
	lines   []string
	partial bytes.Buffer
	total   int
	cap     int
}

// newProgressRing returns a ring keeping the last n complete lines.
func newProgressRing(n int) *progressRing {
	return &progressRing{cap: n}
}

// Write implements io.Writer; it never fails.
func (r *progressRing) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.partial.Write(p)
	for {
		b := r.partial.Bytes()
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			break
		}
		line := string(b[:i])
		r.partial.Next(i + 1)
		r.lines = append(r.lines, line)
		r.total++
		if len(r.lines) > r.cap {
			r.lines = r.lines[len(r.lines)-r.cap:]
		}
	}
	return len(p), nil
}

// Snapshot returns the retained lines (oldest first) and the total
// number of lines ever written.
func (r *progressRing) Snapshot() ([]string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.lines...), r.total
}

// serveMux builds the observability HTTP handler: /metrics (Prometheus
// text by default, ?format=json for the JSON snapshot), /debug/pprof/*
// (the Go profiler), /progress (the live batch progress tail) and a
// root index page.
func serveMux(reg *asymfence.MetricsRegistry, ring *progressRing) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			w.Write(reg.JSON())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteProm(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, req *http.Request) {
		lines, total := ring.Snapshot()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "# %d progress lines total, last %d:\n", total, len(lines))
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "asymsim %s\n\nendpoints:\n"+
			"  /metrics              Prometheus text format\n"+
			"  /metrics?format=json  deterministic JSON snapshot\n"+
			"  /progress             live batch progress tail\n"+
			"  /debug/pprof/         Go profiler\n", buildinfo.Get())
	})
	return mux
}

// serveCmd handles `asymsim serve <experiment>`: it starts the
// observability HTTP server, then runs that experiment with the shared
// metrics registry attached, so /metrics and /debug/pprof can be
// scraped while the batch executes. The server shuts down when the run
// completes unless -hold keeps it up until interrupt. -store attaches
// the persistent measurement store, exactly as on the experiment path.
func serveCmd(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("asymsim serve", flag.ExitOnError)
	listen := fs.String("listen", ":6060", "HTTP listen address")
	cores := fs.Int("cores", 8, "core count (power of two)")
	scale := fs.Float64("scale", 1.0, "execution-time run scale (1.0 = full)")
	horizon := fs.Int64("horizon", 0, "throughput-run length in cycles (0 = default)")
	jobs := fs.Int("j", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	quiet := fs.Bool("q", false, "suppress per-job progress lines on stderr (/progress still updates)")
	hold := fs.Bool("hold", false, "keep serving after the run completes, until interrupted")
	storeDir := fs.String("store", "", "persistent measurement store directory (warm configs load from disk instead of re-simulating)")
	metricsOut := fs.String("metrics", "", "also write the final metrics snapshot to this file as JSON (\"-\" = stdout)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asymsim serve [flags] <experiment>\n"+
			"       e.g. asymsim serve -listen :6060 all\n\n"+
			"experiments: %v\n\nflags:\n", asymfence.ExperimentIDs)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	id := fs.Arg(0)
	exp, ok := asymfence.LookupExperiment(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "asymsim serve: unknown experiment %q (valid: %v)\n",
			id, asymfence.ExperimentIDs)
		return 2
	}

	reg := asymfence.NewMetricsRegistry()
	bi := buildinfo.Get()
	reg.SetMeta("version", bi.Version)
	reg.SetMeta("revision", bi.Revision)
	reg.SetMeta("go", bi.GoVersion)
	ring := newProgressRing(256)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymsim serve:", err)
		return 1
	}
	srv := &http.Server{Handler: serveMux(reg, ring)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "asymsim serve: listening on http://%s (metrics, progress, debug/pprof)\n",
		hostport(ln.Addr().String()))

	progress := io.Writer(ring)
	if !*quiet {
		progress = io.MultiWriter(os.Stderr, ring)
	}
	var stats asymfence.RunStats
	start := time.Now()
	tables, runErr := exp.Run(ctx, asymfence.Options{
		RunConfig: asymfence.RunConfig{
			Jobs: *jobs, Progress: progress, Stats: &stats, Metrics: reg, StoreDir: *storeDir,
		},
		Cores: *cores, Scale: *scale, Horizon: *horizon,
	})
	exitCode := 0
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "asymsim serve:", runErr)
		exitCode = 1
		if errors.Is(runErr, context.Canceled) {
			exitCode = 130
		}
	} else {
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Fprintf(os.Stderr, "asymsim serve: %s: %d jobs (%d simulated, %d cache hits, %d store hits) in %s\n",
			id, stats.Jobs, stats.Simulated, stats.CacheHits, stats.StoreHits,
			time.Since(start).Round(time.Millisecond))
	}

	if *hold && exitCode == 0 {
		fmt.Fprintln(os.Stderr, "asymsim serve: run complete; still serving (interrupt to exit)")
		<-ctx.Done()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	srv.Shutdown(shutCtx)
	<-serveErr
	if err := writeMetrics(reg, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "asymsim serve:", err)
		if exitCode == 0 {
			exitCode = 1
		}
	}
	return exitCode
}

// hostport rewrites a wildcard listen address ("[::]:6060") into one a
// browser can open ("localhost:6060").
func hostport(addr string) string {
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if host == "" || host == "::" || strings.HasPrefix(host, "0.0.0.0") {
			return net.JoinHostPort("localhost", port)
		}
	}
	return addr
}
