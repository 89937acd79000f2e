package main

// valentine serve: the long-running serving mode — a live discovery catalog
// behind an HTTP API. Tables can be loaded from an index (a snapshot
// directory) or a CSV directory at startup, then upserted/removed over HTTP
// while searches run; the catalog periodically snapshots to disk and a final
// snapshot is written on graceful shutdown (SIGINT/SIGTERM drain in-flight
// requests).

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"valentine"
	"valentine/internal/discovery"
	"valentine/internal/server"
	"valentine/internal/wal"
)

// serveHooks lets tests observe the bound addresses and drive shutdown; all
// are nil in production use.
var serveHooks struct {
	ready      func(addr string)
	pprofReady func(addr string)
	shutdown   <-chan struct{}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	indexPath := fs.String("index", "", "index (snapshot directory) to serve (optional)")
	dir := fs.String("dir", "", "directory of CSVs to ingest at startup (optional)")
	snapshotDir := fs.String("snapshot", "", "directory for periodic catalog snapshots (optional; resumed from if it exists)")
	snapshotEvery := fs.Duration("snapshot-every", 30*time.Second, "interval between periodic snapshots")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	parallelism := fs.Int("parallelism", 0, "engine worker-pool size per request (default GOMAXPROCS)")
	signature := fs.Int("signature", 0, "MinHash signature length for a fresh catalog (default 128)")
	bands := fs.Int("bands", 0, "LSH bands for a fresh catalog (default 32)")
	tokenBoost := fs.Float64("token-boost", 0, "blend column-name token overlap into scores (fresh catalog)")
	sealAfter := fs.Int("seal-after", 0, "tables per memtable segment before sealing (default 16)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra address (e.g. localhost:6060; default off)")
	walPath := fs.String("wal", "", "write-ahead log file: ingest is logged before it is acknowledged and replayed on restart (optional)")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always (every ack durable), batch (background interval), none")
	if err := fs.Parse(args); err != nil {
		return err
	}
	walSync, err := wal.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}

	// Resolve the starting catalog: an explicit -index wins; otherwise an
	// existing -snapshot directory is resumed; otherwise a fresh catalog.
	// A loaded catalog keeps its persisted options, so explicit geometry/
	// scoring flags would be silently discarded — reject them instead
	// (mirroring `index -append`).
	var catalogFlags []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "signature", "bands", "token-boost", "seal-after":
			catalogFlags = append(catalogFlags, "-"+f.Name)
		}
	})
	rejectCatalogFlags := func(source string) error {
		if len(catalogFlags) == 0 {
			return nil
		}
		return fmt.Errorf("serve: %s cannot be combined with %s (the loaded catalog keeps its options)",
			strings.Join(catalogFlags, ", "), source)
	}
	var ix *valentine.DiscoveryIndex
	switch {
	case *indexPath != "":
		if err := rejectCatalogFlags("-index"); err != nil {
			return err
		}
		ix, err = valentine.LoadDiscoverySnapshot(*indexPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "serve: loaded %d tables (%d columns) from %s\n",
			ix.NumTables(), ix.NumColumns(), *indexPath)
	case *snapshotDir != "" && snapshotExists(*snapshotDir):
		if err := rejectCatalogFlags("an existing -snapshot directory"); err != nil {
			return err
		}
		ix, err = discovery.LoadSnapshot(*snapshotDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "serve: resumed %d tables (%d columns) from snapshot %s\n",
			ix.NumTables(), ix.NumColumns(), *snapshotDir)
	default:
		ix = valentine.NewDiscoveryIndex(valentine.DiscoveryOptions{
			Signature:  *signature,
			Bands:      *bands,
			TokenBoost: *tokenBoost,
			SealAfter:  *sealAfter,
		})
	}
	if *dir != "" {
		tables, _, err := readCSVDir(*dir, "")
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := ix.Upsert(t); err != nil {
				fmt.Fprintf(os.Stderr, "serve: skipping %s: %v\n", t.Name, err)
			}
		}
		fmt.Fprintf(os.Stderr, "serve: ingested %s → %d tables live\n", *dir, ix.NumTables())
	}

	// A -snapshot directory already holding a *different* catalog's snapshot
	// must not be adopted as this catalog's save target — the first periodic
	// save would overwrite it. Refuse before accepting any writes. (A
	// catalog resumed from the directory trivially carries its lineage.)
	if *snapshotDir != "" && snapshotExists(*snapshotDir) {
		lin, lerr := discovery.SnapshotLineage(*snapshotDir)
		if lerr != nil {
			return fmt.Errorf("serve: reading snapshot manifest in %s: %w", *snapshotDir, lerr)
		}
		if lin != ix.Lineage() {
			return fmt.Errorf("serve: snapshot directory %s holds catalog lineage %x but the serving catalog is lineage %x — refusing to overwrite another catalog's snapshot",
				*snapshotDir, lin, ix.Lineage())
		}
	}

	srv, err := server.New(server.Config{
		Index:          ix,
		RequestTimeout: *timeout,
		Parallelism:    *parallelism,
		SnapshotDir:    *snapshotDir,
		SnapshotEvery:  *snapshotEvery,
		WALPath:        *walPath,
		WALSync:        walSync,
	})
	if err != nil {
		return err
	}
	if *walPath != "" {
		fmt.Fprintf(os.Stderr, "serve: write-ahead log at %s (fsync %s)\n", *walPath, walSync)
	}

	// Opt-in profiling endpoint on its own listener, never on the serving
	// address: hot paths (scoring kernels, ingest, search) can be profiled
	// in situ with `go tool pprof http://<pprof-addr>/debug/pprof/profile`
	// without exposing pprof to serving traffic.
	var pprofLn net.Listener
	if *pprofAddr != "" {
		var err error
		pprofLn, err = net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("serve: pprof listener: %w", err)
		}
		defer pprofLn.Close()
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go http.Serve(pprofLn, pmux)
		fmt.Fprintf(os.Stderr, "serve: pprof on http://%s/debug/pprof/\n", pprofLn.Addr())
		if serveHooks.pprofReady != nil {
			serveHooks.pprofReady(pprofLn.Addr().String())
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (%d tables live)\n", ln.Addr(), ix.NumTables())
	if serveHooks.ready != nil {
		serveHooks.ready(ln.Addr().String())
	}

	// Graceful shutdown: SIGINT/SIGTERM (or the test hook) stops accepting,
	// drains in-flight requests, flushes the ingest batcher, and writes a
	// final snapshot when one is configured.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	case <-serveHooks.shutdown: // nil outside tests: never fires
	}
	fmt.Fprintln(os.Stderr, "serve: shutting down, draining in-flight requests...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		srv.Close()
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("serve: final snapshot: %w", err)
	}
	if *snapshotDir != "" {
		fmt.Fprintf(os.Stderr, "serve: final snapshot written to %s\n", *snapshotDir)
	}
	return nil
}

// snapshotExists reports whether dir holds a catalog snapshot manifest.
func snapshotExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "MANIFEST.gob"))
	return err == nil
}
