// Command nwserved is the long-running HTTP serving daemon: it boots a
// sharded serve.Pool from a serialized query bundle and answers per-query
// verdicts over HTTP — the network-facing counterpart of cmd/nwquery's
// multi-document run.
//
// Usage:
//
//	nwserved -queryset queries.nwq | -queryset-url http://peer:8417/v1/bundle
//	         [-addr :8417] [-cache-dir DIR] [-pubkey NAME.pub]
//	         [-shards n] [-queue n]
//	         [-max-body bytes]
//
// Exactly one of -queryset (a local bundle file) and -queryset-url (a
// peer's GET /v1/bundle endpoint) must be given.  With -queryset-url the
// daemon self-provisions: every boot and reload fetches the peer's
// current bundle through a content-hash-keyed on-disk cache (-cache-dir,
// default nwq-cache), so a restart with a warm cache boots even when the
// peer is down, and an unchanged bundle is one conditional request
// answered 304.  With -pubkey every loaded bundle — local file or fetched
// — must carry a valid detached ed25519 signature (nwtool sign); a bad
// hash or signature fails the reload and the old generation keeps
// serving.  See docs/DISTRIBUTION.md for the fleet flow.
//
// Endpoints:
//
//	POST /v1/documents[?id=ID]  one document per request (body = document
//	                            text in the XML-like syntax, or real XML,
//	                            JSON, or an enter/exit trace when
//	                            ?format=xml|json|trace routes the body
//	                            through internal/adapter); the response is
//	                            the per-query verdict set as JSON.  A full
//	                            shard queue answers 429, a shutting-down
//	                            server 503, both with Retry-After.
//	POST /v1/batch              NDJSON stream, one {"id","doc"} per line
//	                            (an optional "format" field decodes that
//	                            line's doc through the named adapter); one
//	                            verdict line per input line, in input
//	                            order, under the pool's backpressure.
//	POST /v1/reload             reload the bundle file (or re-fetch the
//	                            -queryset-url) and swap pools with zero
//	                            downtime (SIGHUP does the same); the swap
//	                            happens only after the new bundle's hash
//	                            and signature verify.
//	GET  /v1/bundle             the active bundle's raw bytes (ETag =
//	                            content hash; If-None-Match → 304) — what
//	                            peers point -queryset-url at.
//	GET  /v1/bundle.sig         its detached signature (404 if unsigned).
//	GET  /v1/status             active bundle identity (the schema `nwtool
//	                            bundle -json` prints), pool shape, counters.
//	GET  /metrics               Prometheus text exposition.
//
// The bundle is re-opened from the same -queryset path on every reload, so
// a deploy is: write the new bundle (atomically, e.g. rename into place),
// then `kill -HUP` or POST /v1/reload.  In-flight documents finish on the
// old pool; the old bundle is unmapped only after the last of them is done.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bundlecache"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8417", "listen address")
	queryset := flag.String("queryset", "", "serialized query bundle from `nwtool compile`")
	querysetURL := flag.String("queryset-url", "", "peer GET /v1/bundle endpoint to self-provision the bundle from (instead of -queryset)")
	cacheDir := flag.String("cache-dir", "nwq-cache", "with -queryset-url: content-hash-keyed on-disk bundle cache directory")
	pubkeyPath := flag.String("pubkey", "", "NWP1 public key file (nwtool keygen); when set, every loaded bundle must carry a valid detached signature")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "number of pool shards (worker sessions)")
	queue := flag.Int("queue", 64, "bounded queue depth per shard (backpressure)")
	maxBody := flag.Int64("max-body", 8<<20, "maximum single-document body size in bytes")
	flag.Parse()

	if (*queryset == "") == (*querysetURL == "") {
		fatal(errors.New("exactly one of -queryset (compile one with `nwtool compile`) and -queryset-url is required"))
	}
	var pubkey []byte
	if *pubkeyPath != "" {
		var err error
		if pubkey, err = os.ReadFile(*pubkeyPath); err != nil {
			fatal(err)
		}
	}
	cfg := server.Config{
		BundlePath:   *queryset,
		PublicKey:    pubkey,
		Shards:       *shards,
		QueueDepth:   *queue,
		MaxBodyBytes: *maxBody,
	}
	if *querysetURL != "" {
		cache, err := bundlecache.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		src := bundlecache.NewSource(*querysetURL, cache, bundlecache.Options{PublicKey: pubkey})
		cfg.Source = src.Fetch
	}

	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGHUP reloads the bundle in place; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if info, err := srv.Reload(); err != nil {
				fmt.Fprintln(os.Stderr, "nwserved: reload failed, keeping current bundle:", err)
			} else {
				fmt.Fprintf(os.Stderr, "nwserved: reloaded %s (generation %d, %d queries)\n",
					info.Path, info.Generation, len(info.Bundle.Queries))
			}
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	info, err := srv.BundleInfo()
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "nwserved: serving %s (%d queries over %d symbols) on %s, %d shards\n",
		info.Path, len(info.Bundle.Queries), info.Bundle.AlphabetSize, *addr, *shards)

	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwserved:", err)
	os.Exit(1)
}
