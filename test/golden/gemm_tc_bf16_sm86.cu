// Generated by Graphene (OCaml reproduction) for sm86
// kernel: gemm_tc_sm86 | launch: <<<1, 128>>>
#include <cuda_fp16.h>

extern "C" __global__ void gemm_tc_sm86(const nv_bfloat16* __restrict__ A, const nv_bfloat16* __restrict__ B, nv_bfloat16* __restrict__ C) {
  int idx0 = threadIdx.x % 4;
  int idx1 = threadIdx.x / 4;
  int idx2 = threadIdx.x % 4 * 8;
  int idx3 = threadIdx.x % 8 * 8;
  int idx4 = threadIdx.x / 8;
  int idx5 = threadIdx.x % 8 * 32;
  int idx6 = threadIdx.x % 32 / 8 % 2 * 256 + threadIdx.x % 32 / 16 * 8;
  int idx7 = threadIdx.x / 32 % 2 * 32;
  int idx8 = threadIdx.x % 8 * 64;
  int idx9 = threadIdx.x % 32 / 8 % 2 * 512;
  int idx10 = threadIdx.x / 64 * 32;
  int idx11 = threadIdx.x / 64 * 16;
  int idx12 = threadIdx.x % 32 / 4;
  __shared__ nv_bfloat16 As[2048];
  __shared__ nv_bfloat16 Bs[2048];
  // __shared__ As (hoisted)
  // __shared__ Bs (hoisted)
  nv_bfloat16 c_out[2];
  float acc[32];
  nv_bfloat16 a_frag[16];
  nv_bfloat16 b_frag[16];
  acc[0] = 0f;
  acc[1] = 0f;
  acc[2] = 0f;
  acc[3] = 0f;
  acc[4] = 0f;
  acc[5] = 0f;
  acc[6] = 0f;
  acc[7] = 0f;
  acc[8] = 0f;
  acc[9] = 0f;
  acc[10] = 0f;
  acc[11] = 0f;
  acc[12] = 0f;
  acc[13] = 0f;
  acc[14] = 0f;
  acc[15] = 0f;
  acc[16] = 0f;
  acc[17] = 0f;
  acc[18] = 0f;
  acc[19] = 0f;
  acc[20] = 0f;
  acc[21] = 0f;
  acc[22] = 0f;
  acc[23] = 0f;
  acc[24] = 0f;
  acc[25] = 0f;
  acc[26] = 0f;
  acc[27] = 0f;
  acc[28] = 0f;
  acc[29] = 0f;
  acc[30] = 0f;
  acc[31] = 0f;
  for (int kk = 0; kk < 2; kk += 1) {
    #pragma unroll
    for (int v = 0; v < 2; v += 1) {
      asm volatile("cp.async.cg.shared.global [%0], [%1], 16;\n" :: "r"((unsigned)__cvta_generic_to_shared(&As[((v * 32 + idx1) * 32 + idx2 ^ ((((v * 32 + idx1) * 32 + idx2 >> 6) & 3) << 3))])), "l"(&A[(v * 32 + idx1) * 64 + (kk * 4 + idx0) * 8]));
    }
    #pragma unroll
    for (int v = 0; v < 2; v += 1) {
      asm volatile("cp.async.cg.shared.global [%0], [%1], 16;\n" :: "r"((unsigned)__cvta_generic_to_shared(&Bs[((v * 16 + idx4) * 64 + idx3 ^ ((((v * 16 + idx4) * 64 + idx3 >> 6) & 7) << 3))])), "l"(&B[(kk * 32 + (v * 16 + idx4)) * 64 + idx3]));
    }
    asm volatile("cp.async.commit_group;\n");
    asm volatile("cp.async.wait_group 0;\n");
    __syncthreads();
    #pragma unroll
    for (int ks = 0; ks < 2; ks += 1) {
      #pragma unroll
      for (int mt = 0; mt < 2; mt += 1) {
        asm volatile("ldmatrix.sync.aligned.m8n8.x4.shared.b16 {%0, %1, %2, %3}, [%4];\n"
            : "=r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 8])), "=r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 8 + 2])), "=r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 8 + 4])), "=r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 8 + 6]))
            : "r"((unsigned)__cvta_generic_to_shared(&As[((idx7 + mt * 16) * 32 + ks * 16 + idx6 + idx5 ^ ((((idx7 + mt * 16) * 32 + ks * 16 + idx6 + idx5 >> 6) & 3) << 3))])));
      }
      #pragma unroll
      for (int nt = 0; nt < 4; nt += 1) {
        asm volatile("ldmatrix.sync.aligned.m8n8.x2.trans.shared.b16 {%0, %1}, [%2];\n"
            : "=r"(*reinterpret_cast<uint32_t*>(&b_frag[nt * 4])), "=r"(*reinterpret_cast<uint32_t*>(&b_frag[nt * 4 + 2]))
            : "r"((unsigned)__cvta_generic_to_shared(&Bs[(ks * 1024 + (idx10 + nt * 8) + idx9 + idx8 ^ (((ks * 1024 + (idx10 + nt * 8) + idx9 + idx8 >> 6) & 7) << 3))])));
      }
      #pragma unroll
      for (int mt = 0; mt < 2; mt += 1) {
        #pragma unroll
        for (int nt = 0; nt < 4; nt += 1) {
          asm volatile("mma.sync.aligned.m16n8k16.row.col.f32.bf16.bf16.f32 {%0,%1,%2,%3}, {%4,%5,%6,%7}, {%8,%9}, {%0,%1,%2,%3};\n"
              : "+f"(acc[mt * 16 + nt * 4]), "+f"(acc[mt * 16 + nt * 4 + 1]), "+f"(acc[mt * 16 + nt * 4 + 2]), "+f"(acc[mt * 16 + nt * 4 + 3])
              : "r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 8])), "r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 8 + 2])), "r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 8 + 4])), "r"(*reinterpret_cast<uint32_t*>(&a_frag[mt * 8 + 6])), "r"(*reinterpret_cast<uint32_t*>(&b_frag[nt * 4])), "r"(*reinterpret_cast<uint32_t*>(&b_frag[nt * 4 + 2])));
        }
      }
    }
    __syncthreads();
  }
  #pragma unroll
  for (int nt = 0; nt < 4; nt += 1) {
    #pragma unroll
    for (int mt = 0; mt < 2; mt += 1) {
      #pragma unroll
      for (int p = 0; p < 2; p += 1) {
        c_out[0] = __float2bfloat16(acc[mt * 16 + nt * 4 + p * 2]);
        c_out[1] = __float2bfloat16(acc[mt * 16 + nt * 4 + p * 2 + 1]);
        asm volatile("st.global.v2.b16 [%0], {%1,%2};\n"
            :: "l"(&C[(idx7 + (mt * 16 + (idx12 + p * 8))) * 64 + (idx11 + (nt * 4 + idx0)) * 2]), "h"(*reinterpret_cast<unsigned short*>(&c_out[0])), "h"(*reinterpret_cast<unsigned short*>(&c_out[1])));
      }
    }
  }
}
