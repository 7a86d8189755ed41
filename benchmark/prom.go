package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is a scrape of a Prometheus text-format exposition: series
// text as printed (name plus any {labels}) → value.
type promSample map[string]float64

// parseProm reads the text exposition format: comment and blank lines
// are skipped, every other line is `series value [timestamp]`. The
// series may carry a label set whose quoted values can contain spaces,
// so the value is what follows the closing brace, not the first space.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		split := strings.IndexByte(line, ' ')
		if brace := strings.IndexByte(line, '{'); brace >= 0 && (split < 0 || brace < split) {
			end := strings.LastIndexByte(line, '}')
			if end < 0 {
				return nil, fmt.Errorf("prom: unterminated label set in %q", line)
			}
			split = end + 1
		}
		if split < 0 || split >= len(line) {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		fields := strings.Fields(line[split:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:split])] = v
	}
	return out, sc.Err()
}

// family sums every series of a metric family: the bare name plus all
// its label sets. A family the server does not expose sums to 0.
func (s promSample) family(name string) float64 {
	var total float64
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// promDelta is the change of every series between two scrapes of one
// process. A series absent from the first scrape started at 0; a
// counter that went backwards means the process restarted, which the
// harness never does mid-window, so it is reported rather than guessed
// around.
func promDelta(before, after promSample) (promSample, error) {
	d := promSample{}
	for series, v := range after {
		d[series] = v - before[series]
	}
	for series, v := range d {
		if v < 0 && strings.HasSuffix(seriesName(series), "_total") {
			return nil, fmt.Errorf("prom: counter %s went backwards by %g", series, -v)
		}
	}
	return d, nil
}

func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}
