package server

// homePage is the embedded two-panel GUI: a search panel (keywords +
// DDL/XSD fragment, tabular ranked results) on the left and a visualization
// workspace (tree/radial SVG with drill-in and side-by-side comparison) on
// the right — an HTML stand-in for the paper's Flex client.
const homePage = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Schemr — schema search</title>
<style>
  body { font-family: sans-serif; margin: 0; display: flex; height: 100vh; }
  #search { width: 430px; padding: 14px; border-right: 1px solid #ccc; overflow-y: auto; }
  #viz { flex: 1; padding: 14px; overflow: auto; white-space: nowrap; }
  textarea { width: 100%; height: 90px; font-family: monospace; }
  input[type=text] { width: 100%; }
  table { border-collapse: collapse; width: 100%; margin-top: 12px; font-size: 13px; }
  th, td { border: 1px solid #ddd; padding: 4px 6px; text-align: left; }
  tr:hover { background: #f4f8ff; cursor: pointer; }
  .svgbox { display: inline-block; vertical-align: top; margin-right: 14px; border: 1px solid #eee; }
  .controls { margin-bottom: 8px; }
  h1 { font-size: 18px; } label { font-size: 12px; color: #444; }
</style>
</head>
<body>
<div id="search">
  <h1>Schemr</h1>
  <label>Keywords</label>
  <input type="text" id="q" placeholder="patient, height, gender, diagnosis">
  <label>Schema fragment (DDL)</label>
  <textarea id="ddl" placeholder="CREATE TABLE patient (height FLOAT, gender VARCHAR(8));"></textarea>
  <button onclick="run(0)">Search</button>
  <button onclick="run(nextOffset)">next page</button>
  <div id="count"></div>
  <table id="results"><thead>
    <tr><th>name</th><th>score</th><th>matches</th><th>entities</th><th>attrs</th></tr>
  </thead><tbody></tbody></table>
</div>
<div id="viz">
  <div class="controls">
    <label><input type="radio" name="layout" value="tree" checked> tree</label>
    <label><input type="radio" name="layout" value="radial"> radial</label>
    <button onclick="document.getElementById('boxes').innerHTML=''">clear workspace</button>
    <span style="font-size:12px;color:#666">click a result to add it; click a node label in the SVG to drill in</span>
  </div>
  <div id="boxes"></div>
</div>
<script>
let lastQuery = "";
let nextOffset = 0;
async function run(offset) {
  const q = document.getElementById('q').value;
  const ddl = document.getElementById('ddl').value;
  const body = new URLSearchParams();
  if (q) body.set('q', q);
  if (ddl) body.set('ddl', ddl);
  lastQuery = body.toString();
  body.set('offset', offset || 0);
  const resp = await fetch('/api/v1/search', {method: 'POST', body});
  const env = await resp.json();
  const rows = document.querySelector('#results tbody');
  rows.innerHTML = '';
  if (env.error) {
    document.getElementById('count').textContent = env.error.message;
    return;
  }
  const results = env.data.results;
  nextOffset = (offset || 0) + results.length;
  document.getElementById('count').textContent = results.length + ' results (from #' + ((offset||0)+1) + ')';
  results.forEach(r => {
    const tr = document.createElement('tr');
    [r.name, r.score.toFixed(3), r.matches, r.entities, r.attributes].forEach(v => {
      const td = document.createElement('td');
      td.textContent = v; // schema names are user data: never parse them as HTML
      tr.appendChild(td);
    });
    tr.onclick = () => addViz(r.id, r.name);
    rows.appendChild(tr);
  });
}
async function addViz(id, name, focus) {
  if (!focus) fetch('/api/v1/schema/' + id + '/select', {method: 'POST'}); // usage statistics
  const kind = document.querySelector('input[name=layout]:checked').value;
  let url = '/api/v1/schema/' + id + '/svg?layout=' + kind;
  if (lastQuery) url += '&' + lastQuery;
  if (focus) url += '&focus=' + encodeURIComponent(focus);
  const svg = await (await fetch(url)).text();
  const box = document.createElement('div');
  box.className = 'svgbox';
  box.innerHTML = svg; // the server escapes every label in the SVG
  const title = document.createElement('div');
  title.style.cssText = 'font-size:12px;padding:2px';
  title.textContent = name;
  box.prepend(title);
  box.querySelectorAll('text').forEach(t => {
    t.style.cursor = 'pointer';
    t.onclick = () => { box.remove(); addViz(id, name + ' › ' + t.textContent, nodeIdFor(t.textContent)); };
  });
  document.getElementById('boxes').appendChild(box);
}
function nodeIdFor(label) {
  // Entity labels map to ids "e:<label>"; strip the collapsed marker.
  return 'e:' + label.replace(/ \[\+\d+\]$/, '');
}
</script>
</body>
</html>`
