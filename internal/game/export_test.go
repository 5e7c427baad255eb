package game

// ReferenceClassesDiff reports the first difference between in's entity
// classes and the reference construction's on in.G, for the workload
// tests in package game_test (which may import internal/workload).
func ReferenceClassesDiff(in *Instance) error {
	want, wantOf := referenceClasses(in.G)
	return classesDiff(in.classes, in.entityClass, want, wantOf)
}
