package core

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The stream's event encoder. Streamer.Ingest frames every dispatch
// event with appendEvent into one reused line buffer rather than
// reflecting over it with encoding/json. The bytes are exactly
// json.Marshal's (FuzzAppendEvent pins them against it), so the stream
// digest, the spilled log and the served /ingest bodies equal what
// json.Marshal of the events would give, and framing an event
// allocates nothing once the buffer holds the longest line
// (TestStreamIngestAllocs). Each function reserves room for what it
// appends before appending; the reservations only size the buffer,
// and append still grows it where one falls short.

// maxFloatLen bounds a float64 in encoding/json's format: a sign, 17
// significant digits, a point and an exponent such as e-308 take 25
// bytes, and the 'f' form, used only from 1e-6 up to 1e21, no more.
const maxFloatLen = 32

// maxEventFrame bounds appendEvent's own bytes: the five keys with
// their punctuation, two int64 values and the list's brackets come to
// at most 101. The strings and the float reserve their own room.
const maxEventFrame = 128

const hexDigits = "0123456789abcdef"

// appendEvent appends json.Marshal(*ev) to b. WaitedS must be finite,
// as every dispatcher-made event's is: json.Marshal refuses NaN and
// ±Inf, and so no digest covers them.
//
//repro:hotpath pinned by TestStreamIngestAllocs
func appendEvent(b []byte, ev *DispatchEvent) []byte {
	//repro:allow:hotpathalloc the streamer's one line buffer grows only until it holds the longest event
	b = slices.Grow(b, maxEventFrame)
	b = append(b, `{"At":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	b = append(b, `,"Workflow":`...)
	b = appendString(b, ev.Workflow)
	b = append(b, `,"GPU":`...)
	b = strconv.AppendInt(b, int64(ev.GPU), 10)
	b = append(b, `,"WaitedS":`...)
	b = appendFloat(b, ev.WaitedS)
	b = append(b, `,"RunningAlongside":`...)
	if ev.RunningAlongside == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, name := range ev.RunningAlongside {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, name)
	}
	return append(b, "]}"...)
}

// appendString appends s as encoding/json quotes a string with HTML
// escaping on: `\"` and `\\`, the short escapes for \b \f \n \r \t,
// \u00XX for the other control bytes and for < > &, \u2028 and
// \u2029 for those two runes, and \ufffd for each byte of invalid
// UTF-8. No newline byte survives, which is what lets the spill end
// lines with one.
//
//repro:hotpath pinned by TestStreamIngestAllocs
func appendString(b []byte, s string) []byte {
	// Every input byte becomes at most six output bytes.
	//repro:allow:hotpathalloc the streamer's one line buffer grows only until it holds the longest event
	b = slices.Grow(b, 2+6*len(s))
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f in encoding/json's float64 format: the
// shortest decimal that round-trips, in 'f' form, or in 'e' form below
// 1e-6 and from 1e21 up, with a two-digit negative exponent cut to one
// digit (e-09 becomes e-9).
//
//repro:hotpath pinned by TestStreamIngestAllocs
func appendFloat(b []byte, f float64) []byte {
	//repro:allow:hotpathalloc the streamer's one line buffer grows only until it holds the longest event
	b = slices.Grow(b, maxFloatLen)
	if abs := math.Abs(f); abs > 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}
