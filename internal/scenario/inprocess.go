// Package scenario serves a configured internal/server on a loopback
// listener, so one process can drive the catalog over real HTTP — JSON
// codec, admission control, ingest batcher and WAL included. The benchmark
// module's serving workloads start every server they measure through
// StartInProcessConfig (bench/serving.go), which is why the package keeps
// this import path.
package scenario

import (
	"context"
	"net"
	"net/http"
	"time"

	"valentine/internal/server"
)

// InProcess is a server.Server listening on a loopback port.
type InProcess struct {
	// URL is the http://127.0.0.1:port base address.
	URL string
	srv *server.Server
	hs  *http.Server
	err chan error
}

// StartInProcessConfig serves a fully-configured server (WAL, snapshots,
// admission control included) on a loopback listener. Close releases it.
func StartInProcessConfig(cfg server.Config) (*InProcess, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	p := &InProcess{
		URL: "http://" + ln.Addr().String(),
		srv: srv,
		hs:  &http.Server{Handler: srv.Handler()},
		err: make(chan error, 1),
	}
	go func() { p.err <- p.hs.Serve(ln) }()
	return p, nil
}

// Close drains in-flight requests, flushes the ingest batcher, and stops
// the listener. The catalog stays open: it belongs to the caller.
func (p *InProcess) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := p.hs.Shutdown(ctx)
	if err := <-p.err; err != nil && err != http.ErrServerClosed {
		p.srv.Close()
		return err
	}
	if err := p.srv.Close(); err != nil {
		return err
	}
	return shutdownErr
}
