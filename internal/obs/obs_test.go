package obs

import (
	"strings"
	"testing"
	"time"
)

func TestWrite(t *testing.T) {
	var b strings.Builder
	Write(&b, "empty_total", "counter")
	Write(&b, "up", "gauge",
		Sample{Value: Bool(true)},
		Sample{Labels: Join(L("replica", "a\"b\\c\nd"), L("model", ""), L("le", "0.5")), Value: 0.25},
		Sample{Suffix: "_count", Labels: L("replica", ""), Value: 12345678})
	want := "# TYPE up gauge\n" +
		"up 1\n" +
		`up{replica="a\"b\\c\nd",le="0.5"} 0.25` + "\n" +
		"up_count 12345678\n"
	if b.String() != want {
		t.Fatalf("page:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestHistSamples(t *testing.T) {
	var h LatencyHist
	for _, d := range []time.Duration{-time.Second, 30 * time.Microsecond, 2 * time.Second} {
		h.Observe(d)
	}
	var b strings.Builder
	Write(&b, "lat_seconds", "histogram", h.Snapshot().Samples(L("r", "x"))...)
	page := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{r="x",le="2.5e-05"} 1` + "\n",
		`lat_seconds_bucket{r="x",le="5e-05"} 2` + "\n",
		`lat_seconds_bucket{r="x",le="1"} 2` + "\n",
		`lat_seconds_bucket{r="x",le="+Inf"} 3` + "\n",
		`lat_seconds_sum{r="x"} 2.00003` + "\n",
		`lat_seconds_count{r="x"} 3` + "\n",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("histogram page missing %q:\n%s", want, page)
		}
	}
	if n := strings.Count(page, "# TYPE"); n != 1 {
		t.Fatalf("%d TYPE lines, want 1:\n%s", n, page)
	}
}
