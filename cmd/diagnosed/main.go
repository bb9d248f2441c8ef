// Command diagnosed serves the paper's diagnosis algorithm over
// HTTP/JSON — the network edge of the engine stack. It holds a
// bounded registry of bound engines keyed by topology spec, coalesces
// concurrent /v1/diagnose requests into grouped Engine.DiagnoseBatch
// calls (so shared certification, shared final prefixes and the
// result cache engage automatically under overlapping traffic),
// streams campaign sweeps over /v1/campaign, and exports the stack's
// counters at /metrics in Prometheus text. See docs/service.md for
// the API and the coalescing soundness argument.
//
// Usage:
//
//	diagnosed [-addr 127.0.0.1:7133] [-registry 8] [-window 0]
//	          [-max-batch 64] [-workers N] [-cache 1024]
//	          [-preload q:14 -preload implicit:q:20]
//
// Diagnose one hypothesis:
//
//	curl -X POST http://127.0.0.1:7133/v1/diagnose \
//	     -d '{"topology":"q:10","faults":[3,77],"behavior":"mimic"}'
//
// Stream a campaign:
//
//	curl -X POST http://127.0.0.1:7133/v1/campaign \
//	     -d '{"topology":"q:10","min_faults":0,"max_faults":12,"trials":200}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"comparisondiag/internal/serve"
)

// options is the parsed command line.
type options struct {
	addr    string
	cfg     serve.Config
	preload []string
}

// parseArgs turns the command-line arguments into options. Flag errors
// and rejected values are printed to out with the usage text and
// returned; main exits 2 on them.
func parseArgs(args []string, out io.Writer) (options, error) {
	fs := flag.NewFlagSet("diagnosed", flag.ContinueOnError)
	fs.SetOutput(out)
	var o options
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7133", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&o.cfg.RegistryCap, "registry", 8, "bound-engine LRU capacity")
	fs.DurationVar(&o.cfg.Window, "window", 0, "opt-in linger: how long a request that finds a worker free waits for company (0 = dispatch at once)")
	fs.IntVar(&o.cfg.MaxBatch, "max-batch", 64, "most distinct requests in one batch (1 turns coalescing off)")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "worker-pool size per engine, also its concurrent batch limit (0 = GOMAXPROCS)")
	fs.IntVar(&o.cfg.CacheCap, "cache", 1024, "per-engine result-cache capacity (0 disables caching)")
	fs.BoolVar(&o.cfg.NoShareCert, "no-share-cert", false, "disable shared certification in coalesced batches (ablation)")
	fs.BoolVar(&o.cfg.NoShareFinal, "no-share-final", false, "disable shared final prefixes in coalesced batches (ablation)")
	fs.Func("preload", "spec to bind at startup, repeatable or comma-separated (prefix implicit: for descriptor binding)", func(v string) error {
		for _, spec := range strings.Split(v, ",") {
			if spec = strings.TrimSpace(spec); spec != "" {
				o.preload = append(o.preload, spec)
			}
		}
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}

	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %v", fs.Args())
	case o.cfg.RegistryCap < 1:
		err = errors.New("-registry must be ≥ 1")
	case o.cfg.Window < 0:
		err = errors.New("-window must be ≥ 0")
	case o.cfg.MaxBatch < 1:
		err = errors.New("-max-batch must be ≥ 1")
	case o.cfg.Workers < 0:
		err = errors.New("-workers must be ≥ 0")
	case o.cfg.CacheCap < 0:
		err = errors.New("-cache must be ≥ 0")
	}
	if err != nil {
		fmt.Fprintf(out, "diagnosed: %v\n", err)
		fs.Usage()
		return options{}, err
	}
	if o.cfg.CacheCap == 0 {
		o.cfg.CacheCap = -1 // serve.Config: negative disables, 0 means default
	}
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	srv := serve.New(o.cfg)
	for _, spec := range o.preload {
		if err := srv.Preload(spec); err != nil {
			fmt.Fprintf(os.Stderr, "diagnosed: preload %s: %v\n", spec, err)
			os.Exit(1)
		}
		fmt.Printf("preloaded %s\n", spec)
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diagnosed: listen: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("diagnosed: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()

	fmt.Printf("diagnosed listening on http://%s (registry %d, window %v, max-batch %d, cache %d)\n",
		ln.Addr(), o.cfg.RegistryCap, o.cfg.Window, o.cfg.MaxBatch, max(o.cfg.CacheCap, 0))
	err = hs.Serve(ln)
	// Serve returns ErrServerClosed on Shutdown; drain the coalescers
	// and worker pools either way.
	srv.Close()
	if err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "diagnosed: serve: %v\n", err)
		os.Exit(1)
	}
}
