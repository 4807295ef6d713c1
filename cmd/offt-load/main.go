// Command offt-load is a closed-loop load generator for offt-serve. It
// drives POST /v1/transform with a fixed transform shape at a ladder of
// concurrency multipliers (closed loop: each worker keeps exactly one
// request in flight), records per-phase latency percentiles, throughput
// and shed rate, scrapes the service's /metrics.json, and emits one JSON
// report with pass/fail gates on counts: a clean 1× phase, 429 shedding
// without hard failures at the top multiplier, and a warm plan cache.
//
// -addr accepts a comma-separated list of replicas (a sharded offt-serve
// fleet): requests round-robin across them and the scraped counters are
// summed fleet-wide, so the hit-rate gate sees the fleet as one service.
//
// With no -addr it self-hosts: it starts an in-process serve.Server on a
// loopback listener with deliberately small admission capacity, so the
// top of the concurrency ladder sheds.
//
// Usage:
//
//	offt-load [-addr host:port] [-grid 64] [-ranks 4] [-variant new]
//	          [-conc 1,4,16] [-duration 3s] [-warmup 8]
//	          [-min-hit 0.9] [-gate auto] [-out -]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"offt/internal/serve"
	"offt/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type phaseResult struct {
	Mult      int     `json:"conc_multiplier"`
	Workers   int     `json:"workers"`
	Requests  int     `json:"requests"`
	OK        int     `json:"ok"`
	Shed      int     `json:"shed"`
	Failed    int     `json:"failed"`
	ElapsedMs float64 `json:"elapsed_ms"`
	RPS       float64 `json:"rps"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	P999Ms    float64 `json:"p999_ms"`
	MinMs     float64 `json:"min_ms"`
	MaxMs     float64 `json:"max_ms"`
	ShedRate  float64 `json:"shed_rate"`
	// Failures tallies failed requests by cause ("HTTP 503",
	// "transport: …"), so a dirty phase is diagnosable from the report.
	Failures map[string]int `json:"failures,omitempty"`
}

// noteFailure tallies one failed request by cause. Caller holds the
// phase mutex.
func (pr *phaseResult) noteFailure(cause string) {
	if pr.Failures == nil {
		pr.Failures = map[string]int{}
	}
	pr.Failures[cause]++
}

type report struct {
	Bench    string             `json:"bench"`
	Grid     [3]int             `json:"grid"`
	Ranks    int                `json:"ranks"`
	Decomp   string             `json:"decomp,omitempty"`
	Comm     string             `json:"comm,omitempty"`
	Variant  string             `json:"variant"`
	Engine   string             `json:"engine"`
	SelfHost bool               `json:"self_host"`
	Phases   []phaseResult      `json:"phases"`
	HitRate  float64            `json:"plan_cache_hit_rate"`
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Gates    map[string]string  `json:"gates"`
	Pass     bool               `json:"pass"`
}

func run() error {
	addr := flag.String("addr", "", "target offt-serve address, or a comma-separated fleet to round-robin across; empty self-hosts an in-process service on loopback")
	grid := flag.Int("grid", 64, "cubic grid edge N (transforms are N³)")
	ranks := flag.Int("ranks", 4, "ranks per transform request")
	decomp := flag.String("decomp", "", "decomposition for requests: slab (default) or pencil (2-D)")
	comm := flag.String("comm", "", "all-to-all schedule pinned in requests: pairwise, bruck, hier, windowed (empty = server default)")
	variant := flag.String("variant", "new", "transform variant for requests")
	workers := flag.Int("workers", 1, "intra-rank kernel workers per request")
	concList := flag.String("conc", "1,4,16", "comma-separated concurrency multipliers (closed-loop workers per phase)")
	duration := flag.Duration("duration", 3*time.Second, "wall-clock length of each phase")
	warmup := flag.Int("warmup", 8, "warm-up requests before the first phase (build + warm the plan)")
	minHit := flag.Float64("min-hit", 0.9, "steady-state plan-cache hit-rate floor")
	gate := flag.String("gate", "auto", "auto applies pass/fail gates and exits 1 on failure; off records only")
	out := flag.String("out", "-", "output report path (- for stdout)")
	waitReady := flag.Duration("wait-ready", 5*time.Second, "with -addr: how long to poll /healthz before starting")
	serveInflight := flag.Int("serve-inflight", 0, "self-host admission capacity in rank units (0 = 2×ranks×workers)")
	serveQueue := flag.Int("serve-queue", 4, "self-host admission queue length")
	timeoutMs := flag.Int("timeout-ms", 8000, "per-request deadline forwarded in the transform header")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the load run (self-host: covers both sides)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	mults, err := parseConc(*concList)
	if err != nil {
		return err
	}

	rep := report{
		Bench:   "offt-serve-load",
		Grid:    [3]int{*grid, *grid, *grid},
		Ranks:   *ranks,
		Decomp:  *decomp,
		Comm:    *comm,
		Variant: *variant,
		Engine:  "mem",
		Gates:   map[string]string{},
		Pass:    true,
	}

	tg := newTargets(*addr)
	var srv *serve.Server
	var httpSrv *http.Server
	if tg == nil {
		rep.SelfHost = true
		inflight := *serveInflight
		if inflight <= 0 {
			inflight = 2 * *ranks * *workers
		}
		srv = serve.New(serve.Config{
			MaxPlans:         4,
			MaxInFlightRanks: inflight,
			MaxQueue:         *serveQueue,
			DefaultTimeout:   time.Duration(*timeoutMs) * time.Millisecond,
			Telemetry:        telemetry.NewRegistry(),
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv = &http.Server{Handler: srv.Handler()}
		go func() { _ = httpSrv.Serve(ln) }()
		tg = newTargets(ln.Addr().String())
		fmt.Printf("self-hosted offt-serve on %s (inflight=%d queue=%d)\n", tg.addrs[0], inflight, *serveQueue)
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
	}}
	for _, b := range tg.addrs {
		if err := waitHealthy(client, b, *waitReady); err != nil {
			return err
		}
	}
	if len(tg.addrs) > 1 {
		fmt.Printf("round-robin across %d replicas: %s\n", len(tg.addrs), strings.Join(tg.addrs, ", "))
	}

	body, err := buildRequestBody(*grid, *ranks, *decomp, *comm, *variant, *workers, *timeoutMs)
	if err != nil {
		return err
	}

	// Warm every replica: in a sharded fleet each replica must learn the
	// route (and the owner build the plan) before the clock starts.
	warmups := *warmup
	if w := 2 * len(tg.addrs); warmups < w {
		warmups = w
	}
	for i := 0; i < warmups; i++ {
		if code, err := post(client, tg.pick(), body); err != nil {
			return fmt.Errorf("warmup request: %w", err)
		} else if code != http.StatusOK {
			return fmt.Errorf("warmup request: HTTP %d", code)
		}
	}

	for _, m := range mults {
		pr := runPhase(client, tg, body, m, *duration)
		rep.Phases = append(rep.Phases, pr)
		fmt.Printf("conc %2d×: %5d req  %6.1f rps  p50 %6.2fms  p99 %6.2fms  p999 %6.2fms  min %5.2fms  max %6.2fms  shed %5.1f%%  failed %d\n",
			m, pr.Requests, pr.RPS, pr.P50Ms, pr.P99Ms, pr.P999Ms, pr.MinMs, pr.MaxMs, 100*pr.ShedRate, pr.Failed)
	}

	rep.Counters, rep.Gauges, err = scrapeFleet(client, tg.addrs)
	if err != nil {
		return fmt.Errorf("scrape /metrics.json: %w", err)
	}
	hits := rep.Counters["serve.plan_cache.hits"]
	misses := rep.Counters["serve.plan_cache.misses"]
	if hits+misses > 0 {
		rep.HitRate = round4(float64(hits) / float64(hits+misses))
	}

	if *gate == "auto" {
		applyGates(&rep, *minHit)
	}

	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		}
		cancel()
		shctx, shcancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = httpSrv.Shutdown(shctx)
		shcancel()
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	for name, verdict := range rep.Gates {
		fmt.Printf("gate %-14s %s\n", name, verdict)
	}
	if !rep.Pass {
		return fmt.Errorf("offt-load: gates failed")
	}
	fmt.Println("offt-load: all gates passed")
	return nil
}

// applyGates fills rep.Gates and rep.Pass. The 1× phase must be clean
// (zero failures, zero sheds); the top multiplier must shed (the admission
// queue is sized so a 16× closed loop overflows it) without hard failures;
// and the plan cache must be effectively warm.
func applyGates(rep *report, minHit float64) {
	fail := func(name, msg string) { rep.Gates[name] = "FAIL: " + msg; rep.Pass = false }
	pass := func(name, msg string) { rep.Gates[name] = "ok: " + msg }

	var base *phaseResult
	var top *phaseResult
	for i := range rep.Phases {
		if rep.Phases[i].Mult == 1 {
			base = &rep.Phases[i]
		}
		if top == nil || rep.Phases[i].Mult > top.Mult {
			top = &rep.Phases[i]
		}
	}
	if base != nil {
		switch {
		case base.Failed > 0:
			fail("base_clean", fmt.Sprintf("%d failed requests at 1×", base.Failed))
		case base.Shed > 0:
			fail("base_clean", fmt.Sprintf("%d shed requests at 1×", base.Shed))
		default:
			pass("base_clean", "zero failures and zero sheds at 1×")
		}
	}
	if top != nil && top.Mult > 1 {
		switch {
		case top.Failed > 0:
			fail("overload_shed", fmt.Sprintf("%d hard failures at %d×", top.Failed, top.Mult))
		case top.Shed == 0:
			fail("overload_shed", fmt.Sprintf("no 429 sheds at %d×: admission never saturated", top.Mult))
		default:
			pass("overload_shed", fmt.Sprintf("%d sheds, zero hard failures at %d×", top.Shed, top.Mult))
		}
	}
	if rep.HitRate < minHit {
		fail("cache_hit", fmt.Sprintf("plan-cache hit rate %.3f < %.2f", rep.HitRate, minHit))
	} else {
		pass("cache_hit", fmt.Sprintf("plan-cache hit rate %.3f ≥ %.2f", rep.HitRate, minHit))
	}
}

// targets round-robins requests across one or more offt-serve replicas.
type targets struct {
	addrs []string
	next  atomic.Uint64
}

// newTargets splits a comma-separated address list; nil when empty.
func newTargets(list string) *targets {
	var addrs []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil
	}
	return &targets{addrs: addrs}
}

// pick returns the next replica in rotation (safe for concurrent workers).
func (t *targets) pick() string {
	return t.addrs[(t.next.Add(1)-1)%uint64(len(t.addrs))]
}

// scrapeFleet sums each replica's counters into one fleet view (round-
// robin splits the traffic, so per-replica counters each hold a slice of
// it); gauges are instantaneous per-replica states and merge by maximum.
func scrapeFleet(client *http.Client, addrs []string) (map[string]int64, map[string]float64, error) {
	counters := map[string]int64{}
	gauges := map[string]float64{}
	for _, b := range addrs {
		c, g, err := scrapeMetrics(client, b)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range c {
			counters[k] += v
		}
		for k, v := range g {
			if cur, ok := gauges[k]; !ok || v > cur {
				gauges[k] = v
			}
		}
	}
	return counters, gauges, nil
}

func runPhase(client *http.Client, tg *targets, body []byte, mult int, dur time.Duration) phaseResult {
	pr := phaseResult{Mult: mult, Workers: mult}
	var mu sync.Mutex
	var lat []time.Duration
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < mult; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				t0 := time.Now()
				code, err := post(client, tg.pick(), body)
				el := time.Since(t0)
				mu.Lock()
				pr.Requests++
				switch {
				case err != nil:
					pr.Failed++
					pr.noteFailure("transport: " + err.Error())
				case code == http.StatusOK:
					pr.OK++
					lat = append(lat, el)
				case code == http.StatusTooManyRequests:
					pr.Shed++
				default:
					pr.Failed++
					pr.noteFailure(fmt.Sprintf("HTTP %d", code))
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)
	pr.ElapsedMs = round2(float64(elapsed.Microseconds()) / 1000)
	if elapsed > 0 {
		pr.RPS = round2(float64(pr.OK) / elapsed.Seconds())
	}
	if pr.Requests > 0 {
		pr.ShedRate = round4(float64(pr.Shed) / float64(pr.Requests))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		ms := func(d time.Duration) float64 { return round2(float64(d.Microseconds()) / 1000) }
		pr.P50Ms = ms(lat[len(lat)/2])
		pr.P99Ms = ms(lat[len(lat)*99/100])
		pr.P999Ms = ms(lat[len(lat)*999/1000])
		pr.MinMs = ms(lat[0])
		pr.MaxMs = ms(lat[len(lat)-1])
	}
	return pr
}

// post sends one transform request and fully drains the response so the
// keep-alive connection is reusable. Returns the HTTP status code.
func post(client *http.Client, base string, body []byte) (int, error) {
	resp, err := client.Post("http://"+base+"/v1/transform", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func buildRequestBody(n, ranks int, decomp, comm, variant string, workers, timeoutMs int) ([]byte, error) {
	var buf bytes.Buffer
	req := serve.TransformRequest{
		Nx: n, Ny: n, Nz: n, Ranks: ranks,
		Direction: "forward", Decomp: decomp, Comm: comm, Variant: variant, Engine: "mem",
		Workers: workers, TimeoutMs: timeoutMs,
	}
	if err := serve.WriteHeader(&buf, req); err != nil {
		return nil, err
	}
	if err := serve.WritePayload(&buf, makeInput(n*n*n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func makeInput(n int) []complex128 {
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(float64(i%17)-8, float64(i%13)-6)
	}
	return data
}

func scrapeMetrics(client *http.Client, base string) (map[string]int64, map[string]float64, error) {
	resp, err := client.Get("http://" + base + "/metrics.json")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, nil, err
	}
	// Keep the report focused on the service-layer series.
	counters := map[string]int64{}
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "serve.") {
			counters[k] = v
		}
	}
	gauges := map[string]float64{}
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "serve.") {
			gauges[k] = v
		}
	}
	return counters, gauges, nil
}

func waitHealthy(client *http.Client, base string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := client.Get("http://" + base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("service at %s not healthy after %v: %w", base, patience, err)
			}
			return fmt.Errorf("service at %s not healthy after %v", base, patience)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func parseConc(s string) ([]int, error) {
	var mults []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		m, err := strconv.Atoi(part)
		if err != nil || m < 1 {
			return nil, fmt.Errorf("bad -conc entry %q", part)
		}
		mults = append(mults, m)
	}
	if len(mults) == 0 {
		return nil, fmt.Errorf("-conc lists no multipliers")
	}
	return mults, nil
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
func round4(f float64) float64 { return float64(int64(f*10000+0.5)) / 10000 }
