// Dense matrix multiplication C += A * B.
params N;
assume N >= 2;
array C[N][N]; array A[N][N]; array B[N][N];
for (i = 0; i < N; i++)
  for (j = 0; j < N; j++)
    for (k = 0; k < N; k++)
      C[i][j] = C[i][j] + A[i][k] * B[k][j];
