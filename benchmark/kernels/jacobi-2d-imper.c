// Imperfectly nested 2-d Jacobi (Pluto example suite).
params T, N;
assume N >= 4;
array A[N][N]; array B[N][N];
for (t = 0; t < T; t++) {
  for (i = 1; i <= N - 2; i++)
    for (j = 1; j <= N - 2; j++)
      B[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);
  for (i = 1; i <= N - 2; i++)
    for (j = 1; j <= N - 2; j++)
      A[i][j] = B[i][j];
}
