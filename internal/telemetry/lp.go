// Line-protocol export and parsing. The format is the InfluxDB text
// line protocol restricted to float fields:
//
//	measurement[,tag=val...] field=val[,field=val...] timestampNs
//
// Tags are emitted sorted by key and values use strconv's shortest
// round-trippable float form, so identical recorder state always yields
// byte-identical output — the property TestTelemetryShardDeterminism
// pins across experiment parallelism settings.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

func writeLP(w io.Writer, epochNs int64, tags [][2]string, series []*Series) error {
	bw := bufio.NewWriter(w)
	var tagSuffix strings.Builder
	for _, t := range tags {
		tagSuffix.WriteByte(',')
		tagSuffix.WriteString(escapeLP(t[0]))
		tagSuffix.WriteByte('=')
		tagSuffix.WriteString(escapeLP(t[1]))
	}
	for _, s := range series {
		for _, p := range s.points() {
			bw.WriteString(escapeLP(s.name))
			bw.WriteString(tagSuffix.String())
			bw.WriteByte(' ')
			for i, f := range s.fields {
				if i > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(f)
				bw.WriteByte('=')
				var v float64
				if i < len(p.Vals) {
					v = p.Vals[i]
				}
				bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(epochNs+int64(p.At), 10))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// lpEscaper escapes the characters the line protocol reserves in
// measurement names and tag keys/values, the escape character itself
// included; line breaks, which no line can carry, become \n and \r.
var lpEscaper = strings.NewReplacer(`\`, `\\`, ",", `\,`, " ", `\ `, "=", `\=`, "\n", `\n`, "\r", `\r`)

func escapeLP(s string) string {
	s = lpEscaper.Replace(s)
	if strings.HasPrefix(s, "#") { // a leading # would read as a comment line
		s = `\` + s
	}
	return s
}

// LPPoint is one parsed line-protocol record.
type LPPoint struct {
	Name   string
	Tags   map[string]string
	Fields map[string]float64
	TS     int64
}

// ParseLP parses line-protocol text as emitted by WriteLP. It exists for
// tests and tooling (round-trip checks, trend extraction); it handles
// the subset WriteLP produces: float fields, escaped tags, ns timestamps.
func ParseLP(r io.Reader) ([]LPPoint, error) {
	var out []LPPoint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		parts := splitLP(line, ' ')
		if len(parts) != 3 {
			return nil, fmt.Errorf("telemetry: line %d: want 3 sections, got %d", lineNo, len(parts))
		}
		p := LPPoint{Tags: map[string]string{}, Fields: map[string]float64{}}
		// Section 1: measurement[,tag=val...]
		keyParts := splitLP(parts[0], ',')
		p.Name = unescapeLP(keyParts[0])
		for _, kv := range keyParts[1:] {
			k, v, ok := cutLP(kv)
			if !ok {
				return nil, fmt.Errorf("telemetry: line %d: bad tag %q", lineNo, kv)
			}
			p.Tags[unescapeLP(k)] = unescapeLP(v)
		}
		// Section 2: field=val[,field=val...]
		for _, kv := range splitLP(parts[1], ',') {
			k, v, ok := cutLP(kv)
			if !ok {
				return nil, fmt.Errorf("telemetry: line %d: bad field %q", lineNo, kv)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("telemetry: line %d: field %s: %v", lineNo, k, err)
			}
			p.Fields[unescapeLP(k)] = f
		}
		ts, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: timestamp: %v", lineNo, err)
		}
		p.TS = ts
		out = append(out, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitLP splits on sep, honoring backslash escapes.
func splitLP(s string, sep byte) []string {
	var parts []string
	var cur strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && i+1 < len(s):
			cur.WriteByte(s[i])
			cur.WriteByte(s[i+1])
			i++
		case s[i] == sep:
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(s[i])
		}
	}
	parts = append(parts, cur.String())
	return parts
}

// cutLP splits key=value at the first unescaped '='.
func cutLP(s string) (key, value string, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '=' {
			return s[:i], s[i+1:], true
		}
	}
	return "", "", false
}

// unescapeLP undoes escapeLP: a backslash takes the next byte
// literally, except that \n and \r stand for line breaks.
func unescapeLP(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			i++
			switch c = s[i]; c {
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}
