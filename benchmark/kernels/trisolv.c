// Forward substitution (triangular solve).
params N;
assume N >= 3;
array L[N][N]; array x[N]; array b[N];
for (i = 0; i < N; i++) {
  x[i] = b[i];
  for (j = 0; j < i; j++)
    x[i] = x[i] - L[i][j] * x[j];
  x[i] = x[i] / L[i][i];
}
