// Triangular matrix multiply.
params N;
assume N >= 3;
array A[N][N]; array B[N][N];
for (i = 1; i < N; i++)
  for (j = 0; j < N; j++)
    for (k = 0; k < i; k++)
      B[i][j] = B[i][j] + A[i][k] * B[k][j];
