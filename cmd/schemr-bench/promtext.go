package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
)

// promSeries is one line of a Prometheus text exposition.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnapshot is one scrape of GET /metrics.
type promSnapshot []promSeries

// parseProm reads the text exposition format: comment lines skipped, label
// values unescaped, histogram _sum/_count/_bucket series kept under their
// full names.
func parseProm(r io.Reader) (promSnapshot, error) {
	var snap promSnapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		snap = append(snap, s)
	}
	return snap, sc.Err()
}

func parsePromLine(line string) (promSeries, error) {
	s := promSeries{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(line, "{ "); i < 0 {
		return s, fmt.Errorf("no value")
	} else if line[i] == ' ' {
		s.name, rest = line[:i], line[i:]
	} else {
		s.name = line[:i]
		rest = line[i+1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("malformed labels")
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for i := 0; i < len(rest); i++ {
				c := rest[i]
				if c == '\\' && i+1 < len(rest) {
					i++
					switch rest[i] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[i])
					}
					continue
				}
				if c == '"' {
					rest = rest[i+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value")
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, err
	}
	s.value = v
	return s, nil
}

// sum adds up every series of the name whose labels include all of match
// (alternating key, value). Summing is what makes the result independent
// of labels the caller does not care about, such as tenant.
func (p promSnapshot) sum(name string, match ...string) float64 {
	total := 0.0
series:
	for _, s := range p {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.labels[match[i]] != match[i+1] {
				continue series
			}
		}
		total += s.value
	}
	return total
}

// promWindow is the pair of scrapes around a measured window.
type promWindow struct{ before, after promSnapshot }

func (w promWindow) delta(name string, match ...string) float64 {
	return w.after.sum(name, match...) - w.before.sum(name, match...)
}

// histMean is a histogram's mean observation over the window, from its
// _sum and _count series.
func (w promWindow) histMean(name string, match ...string) float64 {
	return ratio(w.delta(name+"_sum", match...), w.delta(name+"_count", match...))
}

func scrapeProm(base string) (promSnapshot, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// scrapeMemStats reads the server's runtime.MemStats from expvar
// (/debug/vars, mounted by the server's -pprof flag).
func scrapeMemStats(base string) (runtime.MemStats, error) {
	var vars struct {
		MemStats runtime.MemStats `json:"memstats"`
	}
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		return vars.MemStats, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return vars.MemStats, fmt.Errorf("GET /debug/vars: %s", resp.Status)
	}
	return vars.MemStats, json.NewDecoder(resp.Body).Decode(&vars)
}
