package telemetry

import (
	"flag"
	"fmt"
	"io"
)

// CLI bundles the observability flags shared by the offt commands
// (-metrics, -pprof) and the start/finish lifecycle around them.
type CLI struct {
	// MetricsOut is the -metrics destination: a snapshot file written on
	// exit ("-" = stdout; a .prom suffix selects Prometheus text format).
	MetricsOut string
	// PprofAddr is the -pprof listen address for the debug HTTP server.
	PprofAddr string

	reg *Registry
}

// RegisterFlags declares the two flags on fs (flag.CommandLine in the
// commands).
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsOut, "metrics", "",
		`write a metrics snapshot to this file on exit ("-" = stdout, *.prom = Prometheus text)`)
	fs.StringVar(&c.PprofAddr, "pprof", "",
		"serve net/http/pprof, expvar, and /metrics on this address (e.g. localhost:6060)")
}

// Enabled reports whether any flag asked for a metrics registry.
func (c *CLI) Enabled() bool { return c.MetricsOut != "" || c.PprofAddr != "" }

// Registry returns the shared registry, creating it on first use. It is
// nil when neither -metrics nor -pprof was given, so instrumented code
// paths stay on their no-op branch.
func (c *CLI) Registry() *Registry {
	if c.reg == nil && c.Enabled() {
		c.reg = NewRegistry()
	}
	return c.reg
}

// Start launches the -pprof debug server when requested and reports the
// bound address on w (the ":0" form picks a free port).
func (c *CLI) Start(w io.Writer) error {
	if c.PprofAddr == "" {
		return nil
	}
	addr, err := StartDebugServer(c.PprofAddr, c.Registry())
	if err != nil {
		return fmt.Errorf("pprof server: %w", err)
	}
	fmt.Fprintf(w, "debug server listening on http://%s/debug/pprof/ (metrics at /metrics)\n", addr)
	return nil
}

// Finish writes the -metrics snapshot when requested. Call it after the
// workload, including on failure paths — a partial snapshot still helps
// diagnose what went wrong.
func (c *CLI) Finish() error {
	if c.MetricsOut == "" {
		return nil
	}
	if err := WriteSnapshotFile(c.MetricsOut, c.Registry()); err != nil {
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	return nil
}
