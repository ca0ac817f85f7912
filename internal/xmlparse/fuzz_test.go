package xmlparse

import "testing"

// FuzzXMLParse feeds hostile input to the parser: it must return a
// tree or a positioned *SyntaxError, never panic and never an error of
// another type. CI runs this as a non-gating smoke:
// go test -fuzz=FuzzXMLParse -fuzztime=30s.
func FuzzXMLParse(f *testing.F) {
	f.Add(`<r><page>Hello wo</page><page>rld</page></r>`)
	f.Add(`<?xml version="1.0"?><!DOCTYPE r><r a="1" b='&amp;&#x41;'><!--c--><![CDATA[<x>]]><?pi d?></r>`)
	f.Add("<r>\r\n<w>þa</w> <w>x</w></r>")
	f.Add(`<a><b></a></b>`)
	f.Add(`<a b="<"/>`)
	f.Add("<\xff")
	f.Fuzz(func(t *testing.T, src string) {
		for _, opts := range []Options{{}, {KeepComments: true, KeepProcInsts: true, TrimWhitespace: true}} {
			n, err := Parse(src, opts)
			_, syntax := err.(*SyntaxError)
			switch {
			case err != nil && !syntax:
				t.Fatalf("Parse(%q): error is %T, want *SyntaxError: %v", src, err, err)
			case err == nil && n == nil:
				t.Fatalf("Parse(%q): nil tree without an error", src)
			}
		}
	})
}
