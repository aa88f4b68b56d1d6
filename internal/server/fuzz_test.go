package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzDecodeSearchRequest feeds arbitrary methods, content types, query
// strings and bodies to the search request decoder. It must never panic,
// and it yields either a 4xx API error or a request within its limits whose
// Query either fails with a 4xx error or holds at most maxQueryElements
// elements.
func FuzzDecodeSearchRequest(f *testing.F) {
	f.Add("GET", "", "q=patient+height&limit=5&offset=2&debug=1", "")
	f.Add("POST", "application/x-www-form-urlencoded", "limit=20", "q=patient&ddl=CREATE+TABLE+t+(a+INT)%3B")
	f.Add("POST", "application/json; charset=utf-8", "", `{"q":"patient","ddl":"CREATE TABLE t (a INT);","limit":20,"offset":3,"debug":true}`)
	f.Add("POST", "application/json", "", `{"xsd":"<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\"><xs:element name=\"x\" type=\"xs:string\"/></xs:schema>"}`)
	f.Add("POST", "multipart/form-data; boundary=b", "", "--b\r\nContent-Disposition: form-data; name=\"q\"\r\n\r\npatient\r\n--b--\r\n")
	f.Add("GET", "", "q=a,b,,c&limit=0&offset=-1", "")
	f.Add("PUT", "text/plain", "q=%zz", "{")
	f.Fuzz(func(t *testing.T, method, contentType, rawQuery, body string) {
		r, err := http.NewRequest(method, "/api/v1/search?"+rawQuery, strings.NewReader(body))
		if err != nil {
			return
		}
		if contentType != "" {
			r.Header.Set("Content-Type", contentType)
		}
		req, aerr := decodeSearchRequest(httptest.NewRecorder(), r)
		if aerr != nil {
			if aerr.status < 400 || aerr.status > 499 {
				t.Fatalf("decode error with status %d: %v", aerr.status, aerr)
			}
			return
		}
		if req.Limit < 1 || req.Limit > 500 || req.Offset < 0 || req.Offset > 10_000 {
			t.Fatalf("decoded limit %d, offset %d out of range", req.Limit, req.Offset)
		}
		q, aerr := req.Query()
		if aerr != nil {
			if aerr.status < 400 || aerr.status > 499 {
				t.Fatalf("query error with status %d: %v", aerr.status, aerr)
			}
			return
		}
		if n := q.NumElements(); n > maxQueryElements {
			t.Fatalf("query of %d elements accepted, limit %d", n, maxQueryElements)
		}
	})
}
