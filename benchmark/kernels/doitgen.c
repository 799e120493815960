// Multi-resolution analysis kernel (doitgen).
params N;
assume N >= 2;
array A[N][N][N]; array C4[N][N]; array sum[N];
for (r = 0; r < N; r++)
  for (q = 0; q < N; q++) {
    for (p = 0; p < N; p++) {
      sum[p] = 0.0;
      for (s = 0; s < N; s++)
        sum[p] = sum[p] + A[r][q][s] * C4[s][p];
    }
    for (p = 0; p < N; p++)
      A[r][q][p] = sum[p];
  }
