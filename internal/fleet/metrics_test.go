package fleet

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/rpcsvc"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// fixedRouter returns a router over replicas that were never dialed, in a
// fixed state: every counter set, a fixed set of forward latencies per
// replica, the first replica serving a versioned model with its breaker
// closed, every later one draining with its breaker open.
func fixedRouter(ids ...string) *Router {
	rt := New(Config{HealthInterval: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	for i, id := range ids {
		rep := &replica{id: id, up: true, brk: newBreaker(3, time.Hour)}
		if i == 0 {
			rep.model = "decima@3"
		} else {
			rep.draining = true
			rep.brk.state, rep.brk.openedAt = breakerOpen, time.Now()
		}
		rep.events.Store(uint64(100 * (i + 1)))
		for _, us := range []int{40, 90 * (i + 1), 3000, 60_000} {
			rep.forward.Observe(time.Duration(us) * time.Microsecond)
		}
		rt.replicas[id] = rep
		rt.ring.Add(id)
		rt.sessions[uint64(i+1)] = &route{key: "k" + strconv.Itoa(i), replicaID: id}
	}
	s := &rt.stats
	s.opens.Store(1)
	s.events.Store(2)
	s.closes.Store(3)
	s.noReplica.Store(4)
	s.shed.Store(5)
	s.wrongShard.Store(6)
	s.unknown.Store(7)
	s.migrationsDrain.Store(8)
	s.migrationsFailover.Store(9)
	return rt
}

func routerPage(rt *Router) string {
	var buf bytes.Buffer
	rt.WriteProm(&buf)
	return buf.String()
}

// replicaPage serves one /metrics scrape of a fresh replica with the
// online trainer's counters appended, as the serving binary wires it.
func replicaPage(id, model string) string {
	d := rpcsvc.NewDecimaSessions(rpcsvc.SessionConfig{ReplicaID: id})
	d.SetModel(model, 2)
	tr := online.New(core.New(core.DefaultConfig(4), rand.New(rand.NewSource(1))))
	rec := httptest.NewRecorder()
	rpcsvc.NewOpsHandler(d, tr.WriteProm).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestRouterMetricsGolden pins the router's /metrics page byte for byte for
// a fixed two-replica state.
func TestRouterMetricsGolden(t *testing.T) {
	got := routerPage(fixedRouter("r1", "r2"))
	path := filepath.Join("testdata", "router_metrics.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("router page differs from the golden page:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestMetricsPagesWellFormed parses every page the serving plane exposes
// with the text format's rules: one # TYPE line per metric name, before
// that family's samples, whose samples are contiguous; label values use
// only the format's three escapes and decode back to the identity they
// carry.
func TestMetricsPagesWellFormed(t *testing.T) {
	odd := "a\"b\\c\nd\te"
	for _, tc := range []struct {
		name string
		page string
		ids  []string // every replica label on the page is one of these
	}{
		{"router, two replicas", routerPage(fixedRouter("r1", "r2")), []string{"r1", "r2"}},
		{"replica with trainer", replicaPage("r1", "decima"), []string{"r1"}},
		{"replica, escaped labels", replicaPage(odd, odd), []string{odd}},
		{"router, escaped labels", routerPage(fixedRouter(odd)), []string{odd}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			samples, err := parseProm(tc.page)
			if err != nil {
				t.Fatalf("%v\n%s", err, tc.page)
			}
			seen := 0
			for _, s := range samples {
				id, ok := s.labels["replica"]
				if !ok {
					continue
				}
				seen++
				if !slices.Contains(tc.ids, id) {
					t.Fatalf("%s: replica label decodes to %q, want one of %q", s.family, id, tc.ids)
				}
			}
			if seen == 0 {
				t.Fatalf("no sample carries a replica label:\n%s", tc.page)
			}
		})
	}
}

// promSample is one parsed sample line: the family it belongs to and its
// decoded labels.
type promSample struct {
	family string
	labels map[string]string
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseProm checks a text exposition page: every metric name has exactly
// one # TYPE line, placed before the samples of its family, and a family's
// samples are contiguous (a histogram's _bucket, _sum and _count samples
// belong to its family). It returns the page's samples.
func parseProm(page string) ([]promSample, error) {
	if !strings.HasSuffix(page, "\n") {
		return nil, errors.New("page does not end in a newline")
	}
	typed := map[string]string{}
	done := map[string]bool{}
	cur := ""
	enter := func(fam string) error {
		if fam == cur {
			return nil
		}
		if done[fam] {
			return fmt.Errorf("samples of %s are not contiguous", fam)
		}
		done[cur] = true
		cur = fam
		return nil
	}
	var out []promSample
	for n, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		fail := func(err error) error { return fmt.Errorf("line %d %q: %w", n+1, line, err) }
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || !metricName.MatchString(f[0]) {
				return nil, fail(errors.New("malformed TYPE line"))
			}
			if _, dup := typed[f[0]]; dup {
				return nil, fail(fmt.Errorf("second TYPE line for %s", f[0]))
			}
			typed[f[0]] = f[1]
			if err := enter(f[0]); err != nil {
				return nil, fail(err)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, err := parseSample(line)
		if err != nil {
			return nil, fail(err)
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typed[base] == "histogram" {
				fam = base
			}
		}
		if _, ok := typed[fam]; !ok {
			return nil, fail(fmt.Errorf("no TYPE line for %s before its sample", fam))
		}
		if err := enter(fam); err != nil {
			return nil, fail(err)
		}
		out = append(out, promSample{family: fam, labels: labels})
	}
	return out, nil
}

// parseSample splits one sample line into its metric name and decoded
// labels, checking the value parses.
func parseSample(line string) (string, map[string]string, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 || !metricName.MatchString(line[:i]) {
		return "", nil, errors.New("no metric name")
	}
	name, rest := line[:i], line[i:]
	labels := map[string]string{}
	if rest[0] == '{' {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			eq := strings.Index(rest, `="`)
			if eq < 0 || !labelName.MatchString(rest[:eq]) {
				return "", nil, errors.New("malformed label")
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			for {
				if rest == "" {
					return "", nil, fmt.Errorf("label %s: unterminated value", key)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if rest == "" {
						return "", nil, fmt.Errorf("label %s: dangling escape", key)
					}
					switch rest[0] {
					case '\\', '"':
						v.WriteByte(rest[0])
					case 'n':
						v.WriteByte('\n')
					default:
						return "", nil, fmt.Errorf("label %s: escape \\%c is not one of the format's", key, rest[0])
					}
					rest = rest[1:]
					continue
				}
				v.WriteByte(c)
			}
			if _, dup := labels[key]; dup {
				return "", nil, fmt.Errorf("label %s repeated", key)
			}
			labels[key] = v.String()
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			} else if !strings.HasPrefix(rest, "}") {
				return "", nil, fmt.Errorf("label %s: no comma or brace after its value", key)
			}
		}
		rest = rest[1:]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return "", nil, errors.New("no space before the value")
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return "", nil, fmt.Errorf("value: %w", err)
	}
	return name, labels, nil
}
