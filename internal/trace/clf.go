package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// clfTimeLayout is the timestamp layout used by the Apache Common Log
// Format, e.g. "01/Jul/1995:00:00:01 -0400".
const clfTimeLayout = "02/Jan/2006:15:04:05 -0700"

// MarshalCLF renders the record as one Common Log Format line without a
// trailing newline. The identity and user fields are emitted as "-",
// matching the public NASA and UCB-CS traces.
func MarshalCLF(r Record) string {
	size := "-"
	if r.Bytes > 0 || r.Status == 200 {
		size = strconv.FormatInt(r.Bytes, 10)
	}
	return fmt.Sprintf("%s - - [%s] %q %d %s",
		r.Client, r.Time.Format(clfTimeLayout),
		r.Method+" "+r.URL+" HTTP/1.0", r.Status, size)
}

// ParseCLF parses one Common Log Format line. It tolerates the quirks of
// the 1995-era public traces: "-" sizes, request fields without an HTTP
// version, and stray whitespace.
func ParseCLF(line string) (Record, error) {
	var r Record
	rest := strings.TrimSpace(line)
	if rest == "" {
		return r, fmt.Errorf("trace: empty log line")
	}

	// host ident user [time] "request" status bytes
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return r, fmt.Errorf("trace: malformed log line %q", line)
	}
	r.Client = rest[:sp]
	rest = rest[sp+1:]

	lb := strings.IndexByte(rest, '[')
	rb := strings.IndexByte(rest, ']')
	if lb < 0 || rb < lb {
		return r, fmt.Errorf("trace: missing timestamp in %q", line)
	}
	ts, err := time.Parse(clfTimeLayout, rest[lb+1:rb])
	if err != nil {
		return r, fmt.Errorf("trace: bad timestamp in %q: %v", line, err)
	}
	r.Time = ts
	rest = strings.TrimSpace(rest[rb+1:])

	if len(rest) == 0 || rest[0] != '"' {
		return r, fmt.Errorf("trace: missing request field in %q", line)
	}
	endq := strings.IndexByte(rest[1:], '"')
	if endq < 0 {
		return r, fmt.Errorf("trace: unterminated request field in %q", line)
	}
	req := rest[1 : 1+endq]
	rest = strings.TrimSpace(rest[endq+2:])

	parts := strings.Fields(req)
	switch len(parts) {
	case 0:
		return r, fmt.Errorf("trace: empty request field in %q", line)
	case 1:
		// Old HTTP/0.9 style: just a URL.
		r.Method, r.URL = "GET", parts[0]
	default:
		r.Method, r.URL = parts[0], parts[1]
	}

	tail := strings.Fields(rest)
	if len(tail) < 2 {
		return r, fmt.Errorf("trace: missing status/size in %q", line)
	}
	status, err := strconv.Atoi(tail[0])
	if err != nil {
		return r, fmt.Errorf("trace: bad status in %q: %v", line, err)
	}
	r.Status = status
	if tail[1] != "-" {
		n, err := strconv.ParseInt(tail[1], 10, 64)
		if err != nil {
			return r, fmt.Errorf("trace: bad size in %q: %v", line, err)
		}
		r.Bytes = n
	}
	return r, nil
}

// maxLineBytes bounds one log line, its newline included.
const maxLineBytes = 1024 * 1024

// ReadCLF reads an entire Common Log Format stream. Unparseable lines,
// and lines longer than 1 MiB, are counted and skipped (real traces
// contain corrupt lines); the skipped count is returned alongside the
// trace. The epoch is set to midnight (UTC) of the first record's day.
func ReadCLF(rd io.Reader) (t *Trace, skipped int, err error) {
	t = &Trace{}
	var lines lineSplitter
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	sc.Split(lines.split)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		r, perr := ParseCLF(line)
		if perr != nil {
			skipped++
			continue
		}
		t.Records = append(t.Records, r)
	}
	skipped += lines.overlong
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("trace: reading log: %w", err)
	}
	t.Sort()
	if len(t.Records) > 0 {
		first := t.Records[0].Time.UTC()
		t.Epoch = time.Date(first.Year(), first.Month(), first.Day(), 0, 0, 0, 0, time.UTC)
	}
	return t, skipped, nil
}

// lineSplitter splits a stream into lines like bufio.ScanLines, but
// drops a line that fills the scanner's maxLineBytes buffer without
// ending, counting it, where ScanLines would fail the whole scan.
type lineSplitter struct {
	dropping bool // inside an overlong line, discarding up to its newline
	overlong int
}

func (l *lineSplitter) split(data []byte, atEOF bool) (int, []byte, error) {
	if l.dropping {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return len(data), nil, nil
		}
		l.dropping = false
		return i + 1, nil, nil
	}
	advance, token, err := bufio.ScanLines(data, atEOF)
	if advance == 0 && token == nil && len(data) >= maxLineBytes {
		l.dropping = true
		l.overlong++
		return len(data), nil, nil
	}
	return advance, token, err
}

// WriteCLF writes the trace as Common Log Format, one record per line.
func WriteCLF(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for _, r := range t.Records {
		if _, err := bw.WriteString(MarshalCLF(r)); err != nil {
			return fmt.Errorf("trace: writing log: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("trace: writing log: %w", err)
		}
	}
	return bw.Flush()
}
