package coloring

// DSATURRef exposes the reference DSATUR to the external test package,
// whose BBB test checks the whole recoloring path against it.
var DSATURRef = dsaturRef
