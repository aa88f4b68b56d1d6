package query

import (
	"strings"
	"testing"
)

// FuzzQueryParse feeds arbitrary keyword, DDL and XSD text to Parse. It must
// never panic; a query it returns is non-empty, its keywords carry no
// separator, and its element enumeration, element count, flattened keyword
// list and description agree with one another without panicking.
func FuzzQueryParse(f *testing.F) {
	f.Add("patient height, gender", "", "")
	f.Add("", "CREATE TABLE patient (id INT PRIMARY KEY, height FLOAT);\nCREATE TABLE visit (id INT, patient INT REFERENCES patient(id));", "")
	f.Add("order", "", `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="order"><xs:complexType><xs:sequence><xs:element name="sku" type="xs:string"/></xs:sequence></xs:complexType></xs:element></xs:schema>`)
	f.Add(" ,\t", "CREATE TABLE", "<xs:schema")
	f.Fuzz(func(t *testing.T, keywords, ddlText, xsdText string) {
		q, err := Parse(Input{Keywords: keywords, DDL: ddlText, XSD: xsdText})
		if err != nil {
			if q != nil {
				t.Fatalf("Parse returned a query with error %v", err)
			}
			return
		}
		if q.IsEmpty() {
			t.Fatal("Parse returned an empty query")
		}
		for _, k := range q.Keywords {
			if k == "" || strings.ContainsAny(k, ", \t\n\r") {
				t.Fatalf("keyword %q is empty or holds a separator", k)
			}
		}
		if n, els := q.NumElements(), q.Elements(); n != len(els) {
			t.Fatalf("NumElements %d, Elements enumerates %d", n, len(els))
		}
		q.Flatten()
		_ = q.String()
	})
}
